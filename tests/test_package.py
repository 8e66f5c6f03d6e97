import inspect

import factorlab
from factorlab import arith, coppersmith, fermat, lattice, polynomial, residue

MODULES = (arith, coppersmith, fermat, lattice, polynomial, residue)


def test_package_exports_exactly_the_modules_all():
    public = {
        name for name, value in vars(factorlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    declared = [name for module in MODULES for name in module.__all__]
    assert public == set(declared)
    assert len(declared) == len(set(declared)), "a name is in two modules' __all__"
    for module in MODULES:
        for name in module.__all__:
            assert getattr(factorlab, name) is getattr(module, name), name
