"""The value types' shared base, ``qfeas.model.Record``: construction,
immutability, equality, hashing, repr and ``replace``, as a frozen
dataclass gave them."""

import importlib
import pkgutil

import numpy as np
import pytest

import qfeas
from qfeas.algorithms import AlgorithmSpec, FeasibilityReport
from qfeas.engineering import CryoProfile
from qfeas.model import ErrorBudget, HardwareProfile, LogProbability, OpCounts, Record
from qfeas.presets import get_preset
from qfeas.qec import QecCode
from qfeas.scenario import Scenario, SimulationSettings, parse_scenario
from qfeas.sim.circuit import Circuit
from qfeas.sim.engine import NoiseModel, _Sites
from qfeas.sim.fit import FitResult
from qfeas.sim.gates import Gate

SC_2020 = get_preset("sc-2020")
SCENARIO = parse_scenario("hardware: sc-2020\nalgorithm: {kind: shor, size: 16}\n"
                          "simulation: {kind: grover, qubits: 3}\n")

#: One valid value per field, in field order, already in the form that
#: ``__post_init__`` leaves it in.
SAMPLES = {
    ErrorBudget: {"eps0": 0.1, "eps1": 0.2, "eps2": 0.3},
    OpCounts: {"n0": 1, "n1": 2, "n2": 3.5},
    HardwareProfile: {name: getattr(SC_2020, name) for name in HardwareProfile._fields},
    LogProbability: {"log_value": -1.0},
    AlgorithmSpec: {"kind": "shor", "size_n": 16, "target_fidelity": 0.5,
                    "chemistry_prefactor": 1.0, "routing_overhead": 2.0},
    FeasibilityReport: {"two_qubit_count": 40960, "achieved_log_fidelity": -2.0,
                        "required_eps2": 1e-5, "gap_factor": 3.0,
                        "sequential_runtime": 0.1, "verdict": "infeasible"},
    CryoProfile: {"cooling_power_cold": 1e-3, "wall_power_per_fridge": 2e4},
    QecCode: {"eps_th": 0.01, "eps_nc": 1e-10, "nc_max": 1000, "ops_per_logical_gate": 100,
              "factory_overhead": 5, "correctable_prefactor": 1.0, "floor_prefactor": 2.0},
    SimulationSettings: {"kind": "random", "qubits": 4, "noise": ErrorBudget(eps2=1e-3),
                         "trajectories": 10, "seed": 3, "depths": (5, 10),
                         "pairs_per_layer": 1, "iterations": None, "marked": None,
                         "fit_channels": ("two_qubit",)},
    Scenario: {name: getattr(SCENARIO, name) for name in Scenario._fields},
    Gate: {"kind": "RX", "targets": (3,), "theta": 0.5},
    Circuit: {"n_qubits": 2, "gates": (Gate("H", (0,)), Gate("CZ", (0, 1)))},
    NoiseModel: {"budget": ErrorBudget(eps1=1e-4)},
    FitResult: {"channels": ("two_qubit",), "rates": {"two_qubit": 1e-3},
                "std_errors": {"two_qubit": 1e-5}, "n_observations": 3,
                "residual_norm": 0.5},
    _Sites: {"index": np.array([0, 4]), "rate": np.array([0.1, 0.2]),
             "gates": (Gate("H", (0,)),) * 5},
}


def _record_classes():
    """Every Record subclass that a module of the package defines."""
    for info in pkgutil.walk_packages(qfeas.__path__, "qfeas."):
        importlib.import_module(info.name)
    return {cls for cls in Record.__subclasses__() if cls.__module__.startswith("qfeas.")}


def test_every_record_class_has_a_sample():
    assert _record_classes() == set(SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    values = SAMPLES[cls]
    assert cls._fields == tuple(values)
    record = cls(**values)
    first = cls._fields[0]
    for name, value in values.items():
        assert getattr(record, name) is value or getattr(record, name) == value
    # assignment and deletion, of a field or of a new name, are refused
    for name in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[first])
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert getattr(record, first) is values[first]
    # the dataclass repr
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(record) == f"{cls.__qualname__}({fields})"
    # positional and keyword construction and replace give equal records
    twins = (cls(*values.values()), record.replace(), record.replace(**{first: values[first]}))
    if cls is _Sites:  # array fields: identity
        assert all(twin != record for twin in twins) and record == record
        assert hash(record) == object.__hash__(record)
    else:
        assert all(twin == record and not twin != record for twin in twins)
        if cls is FitResult:  # dict fields, unhashable as in a dataclass
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert {hash(twin) for twin in twins} == {hash(record)}
    # never equal to a tuple of the same values
    assert record != tuple(values.values())
    assert record.__eq__(tuple(values.values())) is NotImplemented
    # a missing, unknown, repeated or surplus argument
    required = {name: values[name] for name in cls._fields if name not in cls._field_defaults}
    calls = [((), {**values, "bogus": 1}), ((values[first],), values),
             ((*values.values(), None), {})]
    if required:
        calls.append(((), dict(list(required.items())[:-1])))
    for args, kwargs in calls:
        with pytest.raises(TypeError, match=rf"^{cls.__qualname__}\(\) takes the fields "):
            cls(*args, **kwargs)
    with pytest.raises(TypeError, match=r"'bogus'\]$"):
        record.replace(bogus=1)


def test_records_of_other_classes_or_tuples_never_compare_equal():
    assert OpCounts(0, 1, 1) != ErrorBudget(0, 1, 1)
    assert ErrorBudget(0, 1, 1) != OpCounts(0, 1, 1)
    assert OpCounts(0, 1, 1) != (0, 1, 1)
    assert NoiseModel(ErrorBudget()) != ErrorBudget()


def test_repr_is_the_dataclass_repr():
    assert repr(Gate("RX", (3,), 0.5)) == "Gate(kind='RX', targets=(3,), theta=0.5)"
    # distinct and code are attributes, not fields
    circuit = Circuit(1, (Gate("H", (0,)),))
    assert repr(circuit) == "Circuit(n_qubits=1, gates=(Gate(kind='H', targets=(0,), theta=None),))"
    assert circuit == Circuit(1, [Gate("H", (0,))]) and circuit.code.tolist() == [0]


def test_replace_validates_again():
    with pytest.raises(ValueError, match="yield_p must lie in"):
        get_preset("sc-2020").replace(yield_p=2.0)
    assert get_preset("sc-2020").replace(yield_p=0.5).yield_p == 0.5


def test_post_init_normalises_the_fields():
    assert Gate("RX", [3], 1).targets == (3,) and Gate("RX", [3], 1).theta == 1.0
    assert AlgorithmSpec("chemistry", 4).target_fidelity == 0.999
