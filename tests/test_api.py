import importlib
import inspect
import pkgutil

import spindeph


def _public_callables():
    for info in pkgutil.iter_modules(spindeph.__path__):
        module = importlib.import_module(f"spindeph.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                        yield f"{module.__name__}.{name}.{attr}", member
                    elif isinstance(member, (classmethod, staticmethod)):
                        yield f"{module.__name__}.{name}.{attr}", member.__func__


def test_no_public_function_takes_a_cap():
    # the enumeration cap (model.DEFAULT_ENUM_CAP) and the dense dimension
    # cap (entanglement.GLOBAL_DIM_CAP) are read where they apply, never
    # passed per call
    seen = dict(_public_callables())
    assert "spindeph.engine.WitnessEvaluator.__init__" in seen
    assert "spindeph.model.config_matrix" in seen
    offenders = [name for name, fn in seen.items()
                 if {"cap", "dim_cap"} & set(inspect.signature(fn).parameters)]
    assert offenders == []


def test_no_public_function_takes_a_tolerance():
    # each tolerance has one value in use, a module constant where it applies
    offenders = [name for name, fn in _public_callables()
                 if any(p.endswith("_tol") for p in inspect.signature(fn).parameters)]
    assert offenders == []
