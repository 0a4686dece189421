"""The traced benchmark (perfbench/tracing.py) installs timing shims on
library module and class attributes, reading each original from the
owner's own ``__dict__``. A refactor that moves a patched function or
method elsewhere (into a base class, another module) must fail here,
not first in the traced run."""


def test_tracer_install_uninstall_round_trip():
    from perfbench import tracing

    tracing.install()
    try:
        patched = list(tracing._patches)
        assert patched
        for owner, attr, orig in patched:
            assert owner.__dict__[attr] is not orig, (owner, attr)
    finally:
        tracing.uninstall()
    for owner, attr, orig in patched:
        assert owner.__dict__[attr] is orig, (owner, attr)
