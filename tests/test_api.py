"""The library's surface is what a run, a script or a workload uses.

Callers are counted in src/ and scripts/ only: code that only a test reaches
belongs in that test.  The exceptions are the acceptance oracles below,
library code that exists for the acceptance criteria to call.

The rules: every top-level function has a caller; every dataclass member is
read; every parameter of a function, method or constructor is read in its
body; and every default is both overridden and taken by some call.  A
default that no call overrides is a constant, and one that every call
overrides is a required parameter, so the one home of a setting a run
chooses is config.DEFAULTS.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ORACLES = {
    "response.volume_preserving_identity",     # criterion 05
}


def _modules():
    """module name -> syntax tree, over src/srblab and scripts/."""
    paths = sorted((ROOT / "src" / "srblab").glob("*.py"))
    paths += sorted((ROOT / "scripts").glob("*.py"))
    return {p.stem: ast.parse(p.read_text()) for p in paths}


def _library():
    return {p.stem for p in (ROOT / "src" / "srblab").glob("*.py")}


def _is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _fields(node):
    """The fields of a dataclass, in order."""
    return [item for item in node.body if isinstance(item, ast.AnnAssign)]


def _dataclasses(modules):
    """class name -> (module, member names, field names): fields, methods
    and properties of every dataclass in srblab, dunders left out."""
    out = {}
    for mod in _library():
        for node in modules[mod].body:
            if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
                continue
            fields = {item.target.id for item in _fields(node)}
            members = fields | {
                item.name for item in node.body
                if isinstance(item, ast.FunctionDef)
                and not item.name.startswith("__")}
            out[node.name] = (mod, members, fields)
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


def _vars_of(expr, scope, env, types):
    """The dataclass x of an expression vars(x), where it is known."""
    if (isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name)
            and expr.func.id == "vars" and len(expr.args) == 1):
        kind = types.of(expr.args[0], scope, env)
        return kind if isinstance(kind, str) else None
    return None


def _arguments(call, scope, env, types, classes):
    """(positional count, keyword names, open) of a call; open means a * or
    ** argument, which may set or leave any parameter, except **vars(x) of
    a known dataclass x, which sets exactly its fields."""
    keywords = set()
    opened = any(isinstance(a, ast.Starred) for a in call.args)
    for k in call.keywords:
        kind = _vars_of(k.value, scope, env, types)
        if k.arg is not None:
            keywords.add(k.arg)
        elif kind is not None:
            keywords |= classes[kind][2]
        else:
            opened = True
    return len(call.args), keywords, opened


def _survey():
    """(references to top-level definitions, member reads, calls) in src/
    and scripts/: references as (module, name) with the definition that
    holds each, reads as (class, member), and calls as target -> list of
    _arguments, the target a (module, name) where scope resolves it and the
    attribute name of any other x.name(...), which may call a method.  A
    definition stored in a dict literal, a registry such as maps._FACTORIES
    or make_sigma's kinds, counts as called through **."""
    modules = _modules()
    library = _library()
    classes = _dataclasses(modules)
    scopes = {m: _Scope(m, t, library) for m, t in modules.items()}
    types = _Types(modules, scopes, classes)
    owners = {}
    for name, (_, members, _) in classes.items():
        for member in members:
            owners.setdefault(member, set()).add(name)
    refs, reads, calls = set(), set(), {}

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
        if isinstance(node, ast.Call):
            callee = scope.resolve(node.func) or (
                node.func.attr if isinstance(node.func, ast.Attribute)
                else None)
            calls.setdefault(callee, []).append(
                _arguments(node, scope, env, types, classes))
            kind = _vars_of(node, scope, env, types)
            if kind is not None:
                reads.update((kind, m) for m in classes[kind][2])
        if isinstance(node, ast.Dict):
            for value in node.values:
                entry = scope.resolve(value) if isinstance(
                    value, (ast.Name, ast.Attribute)) else None
                if entry is not None:
                    calls.setdefault(entry, []).append((0, set(), True))
        for child in ast.iter_child_nodes(node):
            visit(child, scope, env, holder)

    for mod, tree in modules.items():
        visit(tree, scopes[mod], {}, None)
    return modules, classes, refs, reads, calls


def _parameters(args, skip):
    """(name, defaulted, positional) of each parameter of a signature in
    call order, the first `skip` (self, cls) left out."""
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    out = [(a.arg, i >= first_default, True)
           for i, a in enumerate(positional)]
    out += [(a.arg, d is not None, False)
            for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return out[skip:]


def _signatures(modules):
    """(name, callee, parameters, body) of every top-level function, method
    and class constructor in srblab.  callee is how a call reaches it, as in
    _survey; body is the function that reads the parameters, None for a
    dataclass, whose constructor takes its fields."""
    out = []
    for mod in sorted(_library()):
        for node in modules[mod].body:
            if isinstance(node, ast.FunctionDef):
                out.append((f"{mod}.{node.name}", (mod, node.name),
                            _parameters(node.args, 0), node))
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                out.append((f"{mod}.{node.name}", (mod, node.name),
                            [(f.target.id, f.value is not None, True)
                             for f in _fields(node)], None))
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                params = _parameters(item.args, 1)
                if item.name == "__init__":
                    out.append((f"{mod}.{node.name}", (mod, node.name),
                                params, item))
                else:
                    out.append((f"{mod}.{node.name}.{item.name}", item.name,
                                params, item))
    return [s for s in out if s[0] not in ORACLES]


def _defaults():
    """name(parameter) -> (whether some call sets it, whether some call
    leaves it to its default), over every defaulted parameter."""
    modules, _, _, _, calls = _survey()
    out = {}
    for name, callee, params, _ in _signatures(modules):
        for i, (param, defaulted, positional) in enumerate(params):
            if not defaulted:
                continue
            sets = [opened or param in keywords or positional and i < n_args
                    for n_args, keywords, opened in calls.get(callee, [])]
            takes = [opened or not s for s, (_, _, opened)
                     in zip(sets, calls.get(callee, []))]
            out[f"{name}({param})"] = (any(sets), any(takes))
    return out


def test_every_option_has_a_caller():
    # a default that no call overrides is a constant in disguise
    assert [p for p, (overridden, _) in _defaults().items()
            if not overridden] == []


def test_every_default_is_taken():
    # a default that every call overrides is a required parameter in disguise
    assert [p for p, (_, taken) in _defaults().items() if not taken] == []


def test_every_parameter_is_read():
    modules = _modules()
    unread = []
    for name, _, params, body in _signatures(modules):
        if body is None:
            continue
        loads = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)
                 and isinstance(n.ctx, ast.Load)}
        unread += [f"{name}({p})" for p, _, _ in params if p not in loads]
    assert unread == []


def test_every_function_has_a_caller():
    # every top-level function of srblab, the exported ones included
    modules, _, refs, _, _ = _survey()
    uncalled = sorted(
        f"{mod}.{node.name}" for mod in _library()
        for node in modules[mod].body
        if isinstance(node, ast.FunctionDef) and (mod, node.name) not in refs
        and f"{mod}.{node.name}" not in ORACLES)
    assert uncalled == []


def test_every_dataclass_member_is_read():
    _, classes, _, reads, _ = _survey()
    unread = sorted(
        f"{mod}.{name}.{member}"
        for name, (mod, members, _) in classes.items()
        for member in members if (name, member) not in reads
        and f"{mod}.{name}.{member}" not in ORACLES)
    assert unread == []
