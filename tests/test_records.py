"""Value records: validation on every construction path, and the import cost
that NamedTuples and plain classes keep out of set-up."""

import copy
import pickle
import subprocess
import sys

import numpy as np
import pytest

from netupdate import (
    DELIVER,
    DelayTrace,
    PertGraph,
    Schedule,
    SingletonUpdate,
    SystemParameters,
    TestFlow,
    TimedUpdateProcedure,
    UpdateProcedure,
)

from conftest import child_env

_UPDATE = SingletonUpdate.install("S1", {("f", None, 1): DELIVER})
_PROC = UpdateProcedure(((_UPDATE, 1), (_UPDATE, 2)))

# (a valid value, one field set to a value its validation rejects)
VALIDATED = [
    (SystemParameters(1, 2, 3, 4), {"d_c": -1}),
    (SystemParameters(1, 2, 3, 4, t_su=5), {"t_su": -5}),
    (_UPDATE, {"mode": "swap"}),
    (_PROC, {"items": ((_UPDATE, 2),)}),
    (TimedUpdateProcedure(_PROC, Schedule.build({1: 0, 2: 5})),
     {"schedule": Schedule.build({1: 0})}),
    (TestFlow("f", "S1", 0, 1000.0), {"rate_pps": float("nan")}),
    (PertGraph(("a", "b"), (("a", "b", 1),)), {"edges": (("a", "b", -1),)}),
]
IDS = [type(good).__name__ for good, _ in VALIDATED]


@pytest.mark.parametrize("good,bad", VALIDATED, ids=IDS)
def test_bad_value_rejected_by_every_construction_path(good, bad):
    cls = type(good)
    fields = {**good._asdict(), **bad}
    with pytest.raises(ValueError):
        cls(**fields)
    with pytest.raises(ValueError):
        cls(*fields.values())
    with pytest.raises(ValueError):
        cls._make(fields.values())
    with pytest.raises(ValueError):
        good._replace(**bad)


@pytest.mark.parametrize("good,bad", VALIDATED, ids=IDS)
def test_valid_value_survives_every_construction_path(good, bad):
    cls = type(good)
    for same in (cls(**good._asdict()), cls._make(good), good._replace(),
                 copy.copy(good), pickle.loads(pickle.dumps(good))):
        assert type(same) is cls
        assert same == good
    assert repr(good).startswith(f"{cls.__name__}(")


def test_delay_trace_is_built_only_through_its_validating_constructor():
    with pytest.raises(ValueError, match=">= 0"):
        DelayTrace([3, -1])
    with pytest.raises(ValueError, match="one-dimensional"):
        DelayTrace([[1, 2]])
    trace = DelayTrace([3, 1], label="t")
    assert not hasattr(trace, "__dict__")
    assert not hasattr(trace, "_replace") and not hasattr(trace, "_make")
    with pytest.raises(ValueError):
        trace.samples[0] = 7
    assert trace.samples.dtype == np.int64 and trace.label == "t"


def test_cli_import_loads_neither_dataclasses_nor_logging():
    """Every command pays for what importing the CLI and the config loads;
    logging is imported only when a message is logged."""
    code = ("import sys\n"
            "import netupdate.cli\n"
            "from netupdate.config import Experiment\n"
            "print(sorted({'dataclasses', 'logging'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
