"""The package namespace: the names of ``partitions``, ``products`` and
``verify`` load their module on first access, and every public name
resolves as it did when the package imported every module."""

import json

import pytest

import shuffleprob as sp

from conftest import run_python

NAMESPACE_PROBE = """
import json, sys
import shuffleprob
loaded_at_import = sorted(m for m in sys.modules if m.startswith("shuffleprob."))
star = {}
exec("from shuffleprob import *", star)
import shuffleprob.verify, shuffleprob.products
print(json.dumps({
    "loaded_at_import": loaded_at_import,
    "unbound_by_star": [n for n in shuffleprob.__all__ if n not in star],
    "magnus": type(shuffleprob.magnus).__name__,
}))
"""


def test_lazy_names_load_on_first_access_and_star_binds_them_all():
    done = run_python("-c", NAMESPACE_PROBE)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert not {"shuffleprob.partitions", "shuffleprob.products",
                "shuffleprob.verify"} & set(report["loaded_at_import"])
    assert report["unbound_by_star"] == []
    # importing the submodules leaves the re-exported function in place
    assert report["magnus"] == "function"


def test_every_public_name_resolves_to_its_module_object():
    from shuffleprob import cumulants, partitions, products, verify
    from shuffleprob.magnus import magnus
    for name in sp.__all__:
        assert getattr(sp, name) is not None, name
    assert sp.magnus is magnus
    assert sp.run_suites is verify.run_suites
    assert sp.oracle_moments is partitions.oracle_moments
    assert sp.LabeledContext is products.LabeledContext
    assert sp.Distribution is cumulants.Distribution


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        sp.no_such_name
