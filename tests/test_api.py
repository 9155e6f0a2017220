import ast
import inspect
from pathlib import Path

import srblab

ROOT = Path(__file__).resolve().parents[1]


def _calls():
    """name -> list of (positional count, keyword names, open) over every
    call in src/, tests/ and scripts/; open means a * or ** argument, which
    may set any parameter."""
    calls = {}
    for folder in ("src", "tests", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute) else None)
                if name is None:
                    continue
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                opened = (any(isinstance(a, ast.Starred) for a in node.args)
                          or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    (len(node.args), keywords, opened))
    return calls


def test_every_option_has_a_caller():
    # a defaulted parameter that no call sets is a constant in disguise
    calls = _calls()
    unset = []
    for name in srblab.__all__:
        fn = getattr(srblab, name)
        if not inspect.isfunction(fn):
            continue
        params = list(inspect.signature(fn).parameters.values())
        for i, p in enumerate(params):
            if p.default is inspect.Parameter.empty:
                continue
            positional = p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
            if not any(opened or p.name in keywords
                       or positional and i < n_args
                       for n_args, keywords, opened in calls.get(name, [])):
                unset.append(f"{name}({p.name})")
    assert unset == []
