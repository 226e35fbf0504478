"""The scripts can be imported without writing into the checkout."""
import importlib.util
from pathlib import Path
from unittest import mock

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["make_datasets", "refit_params"])
def test_import_creates_no_directory(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch("pathlib.Path.mkdir") as mkdir:
        spec.loader.exec_module(module)
    mkdir.assert_not_called()
    assert callable(module.main)
