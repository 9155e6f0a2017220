"""The library's surface is what a run, a script or a workload uses.

Callers are counted in src/ and scripts/ only: code that only a test reaches
belongs in that test.  The exceptions are the acceptance oracles below,
library code that exists for the acceptance criteria to call.
"""
import ast
import inspect
from pathlib import Path

import srblab

ROOT = Path(__file__).resolve().parents[1]

ORACLES = {
    "response.volume_preserving_identity",     # criterion 05
    "response.VolumeIdentityReport.passed",    # criterion 05
    "maps.iterate_batch",       # criterion 03's finite differences
}


def _modules():
    """module name -> syntax tree, over src/srblab and scripts/."""
    paths = sorted((ROOT / "src" / "srblab").glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py"))
    return {p.stem: ast.parse(p.read_text()) for p in paths}


def _library():
    return {p.stem for p in (ROOT / "src" / "srblab").glob("*.py")}


def _dataclasses(modules):
    """class name -> (module, member names): fields, methods and
    properties of every dataclass in srblab, dunders left out."""
    out = {}
    for mod in _library():
        for node in modules[mod].body:
            if not isinstance(node, ast.ClassDef) or not any(
                    "dataclass" in ast.unparse(d)
                    for d in node.decorator_list):
                continue
            members = set()
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    members.add(item.target.id)
                elif (isinstance(item, ast.FunctionDef)
                      and not item.name.startswith("__")):
                    members.add(item.name)
            out[node.name] = (mod, members)
    return out


class _Scope:
    """Name resolution of one module: its top-level definitions and what it
    imports from srblab."""

    def __init__(self, mod, tree, library):
        self.mod = mod
        self.names = {}              # local name -> (module, name)
        self.modules = {}            # local name -> module
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.names[node.name] = (mod, node.name)
            elif isinstance(node, ast.ImportFrom):
                source = (node.module or "").split(".")[-1]
                for alias in node.names:
                    local = alias.asname or alias.name
                    if alias.name in library:
                        self.modules[local] = alias.name
                    elif source in library:
                        self.names[local] = (source, alias.name)

    def resolve(self, expr):
        """(module, name) of a reference to a top-level definition."""
        if isinstance(expr, ast.Name):
            return self.names.get(expr.id)
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id in self.modules):
            return (self.modules[expr.value.id], expr.attr)
        return None


class _Types:
    """The dataclass an expression evaluates to, by name, where a chain of
    constructors, returns and assignments shows it; None where it does not.
    A tuple of such types stands for a returned tuple."""

    def __init__(self, modules, scopes, classes):
        self.scopes = scopes
        self.classes = classes
        self.functions = {(mod, node.name): node
                          for mod, tree in modules.items()
                          for node in tree.body
                          if isinstance(node, ast.FunctionDef)}
        self.returns = {}

    def of(self, expr, scope, env):
        if isinstance(expr, ast.Name) and expr.id in env:
            return env[expr.id]
        if isinstance(expr, ast.Tuple):
            return tuple(self.of(e, scope, env) for e in expr.elts)
        if isinstance(expr, ast.Call):
            target = scope.resolve(expr.func)
            if target is None:
                return None
            if target[1] in self.classes:
                return target[1]
            return self.returned(target)
        return None

    def env(self, fn, scope):
        """Local name -> type over the assignments of one function; a name
        assigned two different types has none."""
        env, seen = {}, set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target, value = node.targets[0], self.of(node.value, scope, env)
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple):
                pairs = [(t, value[i] if isinstance(value, tuple)
                          and len(value) == len(target.elts) else None)
                         for i, t in enumerate(target.elts)]
            for t, v in pairs:
                if isinstance(t, ast.Name):
                    if t.id in seen and env.get(t.id) != v:
                        v = None
                    seen.add(t.id)
                    env[t.id] = v
        return env

    def returned(self, target):
        if target in self.returns:
            return self.returns[target]
        self.returns[target] = None        # a recursive call has no type
        fn = self.functions.get(target)
        if fn is None:
            return None
        scope = self.scopes[target[0]]
        env = self.env(fn, scope)
        kinds = {self.of(r.value, scope, env) for r in ast.walk(fn)
                 if isinstance(r, ast.Return) and r.value is not None}
        self.returns[target] = kinds.pop() if len(kinds) == 1 else None
        return self.returns[target]


def _survey():
    """(references to top-level definitions, member reads) in src/ and
    scripts/: references as (module, name) with the definition that holds
    each, reads as (class, member)."""
    modules = _modules()
    library = _library()
    classes = _dataclasses(modules)
    scopes = {m: _Scope(m, t, library) for m, t in modules.items()}
    types = _Types(modules, scopes, classes)
    owners = {}
    for name, (_, members) in classes.items():
        for member in members:
            owners.setdefault(member, set()).add(name)
    refs, reads = set(), set()

    def visit(node, scope, env, holder):
        # holder: the top-level definition that holds node; env: the types
        # of the local names in scope, self included in a dataclass method
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            holder = holder or (scope.mod, node.name)
            if isinstance(node, ast.FunctionDef):
                env = {**env, **types.env(node, scope)}
            elif node.name in classes:
                env = {"self": node.name}
        target = scope.resolve(node) if isinstance(
            node, (ast.Name, ast.Attribute)) else None
        if target is not None:
            if target != holder:
                refs.add(target)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            # a member of the receiver's dataclass when that is known, else
            # of every dataclass with a member of that name
            kind = types.of(node.value, scope, env)
            reads.update([(kind, node.attr)] if isinstance(kind, str) else
                         ((c, node.attr) for c in owners.get(node.attr, ())))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "vars" and node.args):
            kind = types.of(node.args[0], scope, env)
            if isinstance(kind, str):
                reads.update((kind, m) for m in classes[kind][1])
        for child in ast.iter_child_nodes(node):
            visit(child, scope, env, holder)

    for mod, tree in modules.items():
        visit(tree, scopes[mod], {}, None)
    return modules, classes, refs, reads


def _calls():
    """name -> list of (positional count, keyword names, open) over every
    call in src/ and scripts/; open means a * or ** argument, which may set
    any parameter."""
    calls = {}
    for tree in _modules().values():
        for node in ast.walk(tree):
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


def test_every_function_has_a_caller():
    # every top-level function of srblab, the exported ones included
    modules, _, refs, _ = _survey()
    uncalled = sorted(
        f"{mod}.{node.name}" for mod in _library()
        for node in modules[mod].body
        if isinstance(node, ast.FunctionDef) and (mod, node.name) not in refs
        and f"{mod}.{node.name}" not in ORACLES)
    assert uncalled == []


def test_every_dataclass_member_is_read():
    _, classes, _, reads = _survey()
    unread = sorted(
        f"{mod}.{name}.{member}" for name, (mod, members) in classes.items()
        for member in members if (name, member) not in reads
        and f"{mod}.{name}.{member}" not in ORACLES)
    assert unread == []
