import pathlib

import clothofit

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_every_export_is_named_in_the_readme():
    text = README.read_text(encoding="utf-8")
    missing = [name for name in clothofit.__all__ if "`%s`" % name not in text]
    assert not missing, missing
