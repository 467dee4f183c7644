import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

SAMPLES = ROOT / "samples"

CHAIN2 = "var x : 0..1 init 0;\n[] x==0 -> x'=1;\n"
TOGGLE = "var x : 0..1 init 0;\n[] x==0 -> x'=1;\n[] x==1 -> x'=0;\n"


@pytest.fixture(scope="session")
def samples_dir() -> pathlib.Path:
    return SAMPLES


@pytest.fixture(scope="session")
def chain2_graph():
    from traceval import build_graph, parse_model

    return build_graph(parse_model(CHAIN2))


@pytest.fixture(scope="session")
def toggle_graph():
    from traceval import build_graph, parse_model

    return build_graph(parse_model(TOGGLE))


@pytest.fixture(scope="session")
def town5x5():
    from traceval import load_town

    return load_town((SAMPLES / "town5x5.json").read_text())


@pytest.fixture(scope="session")
def objective4():
    from traceval import load_objective

    return load_objective((SAMPLES / "objective.json").read_text())


@pytest.fixture
def transposes(monkeypatch):
    """A list given the state count of every graph whose predecessor rows
    are built while the test runs."""
    from traceval import model

    built = []
    transpose = model._transpose

    def counted(start, targets):
        built.append(len(start) - 1)
        return transpose(start, targets)

    monkeypatch.setattr(model, "_transpose", counted)
    return built


@pytest.fixture
def full_disk(monkeypatch):
    """A function that makes every later ledger append fail as on a full
    disk, by shadowing ``open`` in ``traceval.lifecycle``."""
    import builtins
    import errno

    from traceval import lifecycle

    def full_open(path, mode="r", *args, **kwargs):
        if "a" in mode:
            raise OSError(errno.ENOSPC, "No space left on device")
        return builtins.open(path, mode, *args, **kwargs)

    return lambda: monkeypatch.setattr(lifecycle, "open", full_open, raising=False)
