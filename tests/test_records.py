"""Which `emtgis` classes are still dataclasses.  A record is a
`typing.NamedTuple` unless it needs what only a dataclass gives (the rule
in the `emtgis` docstring): every dataclass re-generates and compiles its
methods on each import, bytecode cache or not."""

import dataclasses
import importlib
import inspect
import pkgutil

import emtgis

DATACLASSES = {
    # Each validates, or normalizes, its fields in __post_init__.
    "netmodel.Phasor",
    "emtkernel.SimEvent",
    "emtkernel.SimConfig",
    "coordinator.JfngConfig",
    # It keeps its power-flow problem in a cached_property.
    "grbc.GrbcDeclaration",
    # Each takes a mutable default, or a field assigned after construction.
    "netmodel.CaseFile",
    "netmodel.ValidationReport",
    "emtkernel.EmtState",
    "coordinator.IterationTrace",
    "snapshot.Snapshot",
    "snapshot.PipelineConfig",
}


def test_only_the_records_that_need_it_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(emtgis.__path__):
        if info.name == "__main__":  # running it runs the command line
            continue
        module = importlib.import_module(f"emtgis.{info.name}")
        found |= {f"{info.name}.{name}" for name, cls in vars(module).items()
                  if inspect.isclass(cls) and cls.__module__ == module.__name__
                  and dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES
