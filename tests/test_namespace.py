import types

import admmflow as af
from admmflow import analysis, discrete, exceptions, flows, problem, trajectory


def test_namespace_reexports_exactly_the_module_all_lists():
    # a name deleted from a module cannot linger in the package namespace, and
    # every name a module declares public is reachable from it
    declared = set().union(*(m.__all__ for m in (analysis, discrete, exceptions, flows,
                                                 problem, trajectory)))
    exported = {name for name, value in vars(af).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == declared
