"""The export lists: every name in ``expunbias.__all__`` and in each
submodule's ``__all__`` resolves, and none is listed twice; the error
hierarchy's CLT member."""

import importlib
import pkgutil

import pytest

import expunbias

# __main__ runs the command line when imported
_MODULES = ["expunbias"] + [f"expunbias.{info.name}"
                            for info in pkgutil.iter_modules(expunbias.__path__)
                            if info.name != "__main__"]


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [attr for attr in exported if not hasattr(module, attr)] == []



def test_degenerate_error_is_a_domain_error():
    # the CLT scale is the target's, so nothing is refused as nondifferentiable
    assert issubclass(expunbias.DegenerateError, expunbias.DomainError)
    assert not hasattr(expunbias, "NondifferentiableError")
    assert not hasattr(expunbias.errors, "NondifferentiableError")
