import builtins
import importlib
import pathlib
import pkgutil
import re

import clothofit

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# a backticked bare or dotted name, possibly called: `eval_xy`,
# `ClothoidCurve.point_at`, `sample(50)`
_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")


def _modules():
    return [importlib.import_module("clothofit." + m.name)
            for m in pkgutil.iter_modules(clothofit.__path__)]


def test_every_export_is_named_in_the_readme():
    # the package's exports and every module's: a module's name may be
    # backticked bare, called or qualified by its module, `cli.main`
    text = README.read_text(encoding="utf-8")
    missing = [name for name in clothofit.__all__ if "`%s`" % name not in text]
    names = {m.group(1) for m in map(_NAME.fullmatch, re.findall(r"`([^`\n]+)`", text)) if m}
    for module in _modules():
        short = module.__name__.rpartition(".")[2]
        missing += ["%s.%s" % (short, name) for name in module.__all__
                    if name not in names and "%s.%s" % (short, name) not in names]
    assert not missing, missing


def test_every_name_in_the_readme_exists():
    # the other direction: a README name must be the package, or an
    # attribute of it, of one of its modules, of an exported class or of
    # builtins
    classes = [v for v in map(clothofit.__dict__.get, clothofit.__all__) if isinstance(v, type)]
    namespaces = [clothofit, *_modules(), *classes, builtins]

    def resolves(name):
        head, *rest = name.split(".")
        roots = [clothofit] if head == "clothofit" else []
        roots += [getattr(ns, head) for ns in namespaces if hasattr(ns, head)]
        for obj in roots:
            for part in rest:
                obj = getattr(obj, part, None)
            if obj is not None:
                return True
        return False

    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    names = [m.group(1) for m in map(_NAME.fullmatch, re.findall(r"`([^`\n]+)`", text)) if m]
    assert names
    unknown = sorted({name for name in names if not resolves(name)})
    assert not unknown, unknown
