import types

import ridgecav


def test_all_lists_every_public_name_once_and_sorted():
    # equality with the package namespace also proves every listed name resolves
    public = {
        name for name, value in vars(ridgecav).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert ridgecav.__all__ == sorted(set(ridgecav.__all__))
    assert set(ridgecav.__all__) == public
