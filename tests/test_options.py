"""Every option of a package function has a caller that sets it.

An option is a parameter with a default, of a module-level function in
src/rmtlab.  A call in src/, scripts/ or benchmark/ sets it by keyword,
by position, or possibly through ** (any keyword) or * (any position);
tests do not count.  Calls are matched by the function's name, as a
plain name or an attribute.  An option no caller sets holds one value,
so it belongs in a constant; EXEMPT lists the ones kept anyway.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src/rmtlab", "scripts", "benchmark")

# module.function or module.function.parameter -> why it stays
EXEMPT = {
    "classify.find_critical_points.proximity_tol":
        "the acceptance tests need it to classify the merge family at n >= 10^6",
    "equilibrium.example_curve":
        "its closed-form reference families exist for tests, and "
        "benchmark/spans.py wraps it by name",
}


def options(sources: dict[str, str], package: str) -> dict[str, list]:
    """function name -> [(module.function, positional names, option names)]."""
    out = {}
    for rel, text in sources.items():
        path = Path(rel)
        if str(path.parent) != package:
            continue
        for stmt in ast.parse(text).body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            a = stmt.args
            pos = [x.arg for x in a.posonlyargs + a.args]
            opts = pos[len(pos) - len(a.defaults):] + [
                k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            if opts:
                out.setdefault(stmt.name, []).append((f"{path.stem}.{stmt.name}", pos, opts))
    return out


def unset_options(sources: dict[str, str], package: str, exempt) -> list[str]:
    """module.function.parameter of each option no call in sources sets.

    sources maps a path relative to the repository root to its text.
    """
    defined = options(sources, package)
    set_by = {name: set() for name in defined}
    for text in sources.values():
        for call in ast.walk(ast.parse(text)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            for _, pos, opts in defined.get(name, ()):
                starred = any(isinstance(arg, ast.Starred) for arg in call.args)
                set_by[name].update(pos if starred else pos[:len(call.args)])
                for kw in call.keywords:
                    set_by[name].update(opts if kw.arg is None else (kw.arg,))
    return sorted(f"{key}.{opt}" for name, entries in defined.items()
                  for key, _, opts in entries if key not in exempt
                  for opt in opts
                  if opt not in set_by[name] and f"{key}.{opt}" not in exempt)


def test_checker_flags_options_no_caller_sets():
    sources = {
        "pkg/mod.py": ("def f(x, a=1, *, b=2, c=3): pass\n"
                       "def h(z=1, w=2): pass\n"
                       "def k(u, v=0): pass\n"),
        "pkg/use.py": ("from .mod import f, h, k\n"
                       "f(0, 5)\nmod.f(0, **extra)\nk(*args)\nh(w=3)\n"),
        "scripts/run.py": "from pkg import mod\nmod.h(1)\n",
    }
    # set by position, through ** and *, by keyword and through an attribute
    assert unset_options(sources, "pkg", {}) == []
    sources["scripts/run.py"] = ""
    assert unset_options(sources, "pkg", {}) == ["mod.h.z"]
    sources["pkg/use.py"] = "from .mod import f\nf(0)\nf(0, b=1)\n"
    assert unset_options(sources, "pkg", {"mod.f.c": "", "mod.h": ""}) == [
        "mod.f.a", "mod.k.v"]


def caller_sources() -> dict[str, str]:
    return {str(path.relative_to(ROOT)): path.read_text()
            for folder in CALLERS for path in sorted((ROOT / folder).glob("*.py"))}


def test_every_option_has_a_caller():
    assert unset_options(caller_sources(), "src/rmtlab", EXEMPT) == []


def test_exemptions_name_options_that_exist():
    defined = options(caller_sources(), "src/rmtlab")
    known = {key for entries in defined.values() for key, _, _ in entries}
    known |= {f"{key}.{opt}" for entries in defined.values()
              for key, _, opts in entries for opt in opts}
    assert set(EXEMPT) <= known
