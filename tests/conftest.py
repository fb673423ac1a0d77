import warnings

import pytest

from mtmceval import datamodel

# Hypothesis imports this module when a property fails, to print a patch of
# the falsifying example; it imports libcst, which warns about
# mypy_extensions.TypedDict, and pyproject.toml turns that DeprecationWarning
# into an error that aborts the whole run. Importing it once here, with the
# warning ignored, lets a failing property be reported as a failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture
def row_objects(monkeypatch):
    """The class of every Detection and Box3D built while the test runs:
    constructor calls, and the row views that Sequence.frames builds."""
    made = []

    def counting(make):
        def wrapped(obj, *args, **kwargs):
            made.append(obj if isinstance(obj, type) else type(obj))
            return make(obj, *args, **kwargs)
        return wrapped

    for cls in (datamodel.Box3D, datamodel.Detection):
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    monkeypatch.setattr(datamodel, "_frozen", counting(datamodel._frozen))
    return made
