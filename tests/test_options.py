"""Every optional parameter of a function in ``src/paulipml``, and every
dataclass field with a plain default, is set by some call in ``src/``,
``demos/`` or ``perfbench/``, or is named in ``KEPT`` with the reason it
stays.  An option that only tests set is a constant in disguise: it
widens the signature without serving a caller.

Calls are matched to definitions by name alone (``f(...)``,
``obj.f(...)``; a class call matches its ``__init__``, or the fields of
a dataclass in their order), so two functions of one name share their
callers.  A ``*args`` call sets every positional parameter from its
position on, a ``**kwargs`` call sets them all.  A field is also set by
``setattr``: by its constant name, or, where the name is computed, by
any string constant of the calling module (the CLI sets its config's
fields from the names in its key map).  Fields built by ``field(...)``
hold state, such as the lists of a ``Recording``, and are not options."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "paulipml"
CALLER_DIRS = ("src", "demos", "perfbench")

# "module.qualname.parameter": why the option stays though only tests set it
KEPT = {
    "verify.check_helmholtz_identity.steps":
        "the stacked-versus-per-point test needs a coarser ladder: the "
        "default ladder's h = 0.005 rung sits at the roundoff floor, where "
        "a reordered sum moves it by up to 4.4e-5 relative",
}


def _is_named(node, name):
    """Whether node is ``name`` or a call of it."""
    if isinstance(node, ast.Call):
        node = node.func
    return isinstance(node, ast.Name) and node.id == name


def _definitions():
    """(module.qualname, name calls use, positional parameters as a call
    sees them, optional parameters, whether they are dataclass fields)
    per def and per dataclass."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def visit(node, prefix, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    if any(_is_named(d, "dataclass")
                           for d in child.decorator_list):
                        fields = [f for f in child.body
                                  if isinstance(f, ast.AnnAssign)]
                        out.append((
                            ".".join((module,) + prefix + (child.name,)),
                            child.name, [f.target.id for f in fields],
                            [f.target.id for f in fields
                             if f.value is not None
                             and not _is_named(f.value, "field")], True))
                    visit(child, prefix + (child.name,), True)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    a = child.args
                    positional = [p.arg for p in a.posonlyargs + a.args]
                    static = any(isinstance(d, ast.Name)
                                 and d.id == "staticmethod"
                                 for d in child.decorator_list)
                    if in_class and not static:
                        positional = positional[1:]
                    optional = positional[len(positional) - len(a.defaults):]
                    optional += [p.arg for p, d in zip(a.kwonlyargs,
                                                       a.kw_defaults)
                                 if d is not None]
                    called_as = (prefix[-1] if in_class
                                 and child.name == "__init__" else child.name)
                    qualname = ".".join((module,) + prefix + (child.name,))
                    out.append((qualname, called_as, positional, optional,
                                False))
                    visit(child, prefix + (child.name,), False)
                else:
                    visit(child, prefix, in_class)

        visit(ast.parse(path.read_text()), (), False)
    return out


def _calls():
    """(name -> [(positional count, keyword names)], names ``setattr``
    may set) over the caller dirs; a count of None stands for ``*args``,
    a name of None for ``**kwargs``."""
    calls = defaultdict(list)
    attrs = set()
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                if name is None:
                    continue
                if name == "setattr":
                    attr = node.args[1]
                    attrs.update(
                        [attr.value] if isinstance(attr, ast.Constant)
                        else (c.value for c in ast.walk(tree)
                              if isinstance(c, ast.Constant)
                              and isinstance(c.value, str)))
                count = (None if any(isinstance(a, ast.Starred)
                                     for a in node.args) else len(node.args))
                calls[name].append((count, {k.arg for k in node.keywords}))
    return calls, attrs


def _unset_options():
    calls, attrs = _calls()
    unset = []
    for qualname, called_as, positional, optional, fields in _definitions():
        set_here = set(attrs) if fields else set()
        for count, keywords in calls.get(called_as, ()):
            if None in keywords:
                set_here.update(optional)
            set_here.update(positional if count is None
                            else positional[:count])
            set_here.update(keywords)
        unset += [f"{qualname}.{p}" for p in optional if p not in set_here]
    return unset


def test_every_option_has_a_caller_or_a_reason():
    unset = _unset_options()
    missing = [name for name in unset if name not in KEPT]
    assert not missing, ("optional parameters set by no caller in "
                         f"{', '.join(CALLER_DIRS)}: {missing}")


def test_allowlist_names_only_options_that_need_it():
    unset = set(_unset_options())
    stale = [name for name in KEPT if name not in unset]
    assert not stale, f"KEPT names options that are gone or now set: {stale}"
    assert all(reason.strip() for reason in KEPT.values())


def test_the_audit_sees_positional_and_keyword_settings():
    """The matcher itself: a positional argument sets its parameter, a
    keyword sets its name, and a method's self is not a position."""
    names = {q: (called_as, positional, optional)
             for q, called_as, positional, optional, _ in _definitions()}
    called_as, positional, optional = names["cli._Output.emit"]
    assert (called_as, positional, optional) == ("emit", ["rep", "stem"],
                                                 ["stem"])
    assert names["verify.TrigField.__init__"][0] == "TrigField"
    assert "verify.fit_order.factor" not in _unset_options()


def test_the_audit_sees_dataclass_fields():
    """A dataclass is called with its fields in order; only plain
    defaults are options, and setattr by a computed name sets the
    fields its module names."""
    names = {q: (called_as, positional, optional)
             for q, called_as, positional, optional, _ in _definitions()}
    assert names["timedomain.SimConfig"] == (
        "SimConfig", ["grid", "cfl", "T", "probes", "stride", "lam"],
        ["cfl", "T", "probes", "stride", "lam"])
    assert names["timedomain.Recording"][2] == ["probe_points"]
    config = names["cli.ExperimentConfig"]
    assert len(config[2]) == 15
    unset = _unset_options()
    assert not [p for p in config[2] if f"cli.ExperimentConfig.{p}" in unset]
