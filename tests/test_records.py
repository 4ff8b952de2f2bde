"""The record constructors keep their own copy of the arrays they validate."""

import dataclasses

import numpy as np
import pytest

from cmvmix.data import Dataset, as_array
from cmvmix.dataio import read_fit, write_fit
from cmvmix.distributions import CmvnParams, MvnParams
from cmvmix.ecm import (FitConfig, FitResult, Kind, MixtureModel, Responsibilities,
                        classify_from, fit)
from cmvmix.errors import DimensionMismatch
from cmvmix.simulate import generate, reference_model


def test_dataset_leaves_callers_arrays_writeable():
    samples = np.zeros((3, 2, 2))
    labels = np.array([0, 1, 1])
    flags = np.array([True, False, True])
    d = Dataset(samples, true_labels=labels, good_flags=flags)
    assert samples.flags.writeable and labels.flags.writeable and flags.flags.writeable
    assert not (d.samples.flags.writeable or d.true_labels.flags.writeable
                or d.good_flags.flags.writeable)


def test_dataset_from_a_view_does_not_see_later_writes():
    base = np.arange(12.0).reshape(3, 2, 2)
    labels = np.array([0, 1, 1])
    d = Dataset(base[:], true_labels=labels[:])
    base[0, 0, 0] = np.nan
    labels[0] = 7
    assert np.all(np.isfinite(d.samples)) and d.samples[0, 0, 0] == 0.0
    assert d.true_labels[0] == 0


def test_model_records_copy_their_inputs():
    m = np.ones((2, 3))
    w = np.array([0.25, 0.75])
    comp = MvnParams(m, np.eye(2), np.eye(3))
    model = MixtureModel(kind=Kind.MVN, weights=w, components=(comp, comp))
    assert m.flags.writeable and w.flags.writeable
    m[0, 0], w[0] = np.nan, 0.5
    assert comp.m[0, 0] == 1.0 and model.weights[0] == 0.25
    assert not (comp.m.flags.writeable or model.weights.flags.writeable)


@pytest.mark.parametrize("shape", [(3, 0, 2), (0, 2, 4), (2, 3, 0)])
def test_dataset_refuses_empty_shapes(shape):
    with pytest.raises(DimensionMismatch, match="N, r, p >= 1"):
        Dataset(np.zeros(shape))


def test_dataset_refuses_a_ragged_sample_by_name():
    with pytest.raises(ValueError, match="^samples must be rectangular"):
        Dataset([[[1.0, 2.0]], [[1.0]]])


@pytest.mark.parametrize("labels", [np.array([2**63, 1], np.uint64), [True, 2]],
                         ids=["uint64-beyond-int64", "bool-among-ints"])
def test_dataset_refuses_labels_int64_cannot_hold(labels):
    with pytest.raises(ValueError, match="true_labels must"):
        Dataset(np.zeros((2, 1, 1)), true_labels=labels)


@pytest.mark.parametrize("val,dtype", [
    ([1.5, True], float),
    ([[1.0, 2.0], [np.True_, 3.0]], float),
    ([[[1.5, 2.0]], [[0.5, False]]], float),
    ([np.array([1.0, 2.0]), [True, 3.0]], float),
    ([[1, 2], [3, True]], int),
], ids=["bool-among-floats", "nested-numpy-bool", "nested-3d", "list-of-rows", "nested-ints"])
def test_as_array_refuses_a_boolean_among_numbers(val, dtype):
    with pytest.raises(ValueError, match="^x must be numbers, not booleans$"):
        as_array(val, "x", dtype)


def test_dataset_refuses_a_boolean_among_sample_values():
    with pytest.raises(ValueError, match="^samples must be numbers, not booleans$"):
        Dataset([[[1.5, 2.0]], [[0.5, True]]])


@pytest.mark.parametrize("val,dtype", [
    ([[1.0, 2.0], [3, 4.5]], float),
    ([np.array([1.0, 2.0]), np.array([3.0, 4.0])], float),
    ([[np.int64(1), 2], [3, 4]], int),
    (np.array([1.0, 2.0]), float),
    (2.5, float),
], ids=["mixed-int-float", "list-of-arrays", "numpy-ints", "ndarray", "scalar"])
def test_as_array_takes_numbers_without_booleans(val, dtype):
    np.testing.assert_array_equal(as_array(val, "x", dtype), np.array(val, dtype))


def test_responsibilities_copy_and_freeze_their_inputs():
    z = np.array([[0.25, 0.75], [1.0, 0.0]])
    v = np.array([[0.9, 0.6], [0.7, 0.8]])
    resp = Responsibilities(z=z, v=v)
    assert z.flags.writeable and v.flags.writeable
    z[0, 0], v[0, 0] = np.nan, np.nan
    assert resp.z[0, 0] == 0.25 and resp.v[0, 0] == 0.9
    assert not (resp.z.flags.writeable or resp.v.flags.writeable)


@pytest.mark.parametrize("read_back", [False, True], ids=["fit", "read_fit"])
def test_fit_results_are_read_only(tmp_path, read_back):
    data = generate(reference_model(), 40, seed=2)
    result = fit(data, FitConfig(g=2, n_starts=2, seed=1), Kind.CMVN)
    if read_back:
        write_fit(result, tmp_path / "fit.json")
        result = read_fit(tmp_path / "fit.json")
    arrays = (result.resp.z, result.resp.v, result.hard_labels, result.bad_flags,
              result.loglik_trace)
    assert not any(a.flags.writeable for a in arrays)


_Z = [[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]]
_V = [[0.9, 0.3], [0.7, 0.7], [0.5, 0.1]]


def _small_result(kind, alpha=0.9, **extra):
    comp = MvnParams(np.zeros((1, 1)), np.eye(1), np.eye(1))
    if kind is Kind.CMVN:
        comp = CmvnParams(comp, alpha, 2.0)
    model = MixtureModel(kind=kind, weights=[0.5, 0.5], components=(comp, comp))
    resp = Responsibilities(z=_Z, v=_V if kind is Kind.CMVN else None)
    return FitResult(**{"model": model, "resp": resp, "loglik_trace": [-3.0, -2.5],
                        "converged": True, "config": FitConfig(g=2, seed=11), **extra})


_FIT_FAULTS = [  # (kind, field the message names, one wrong input, exception)
    (Kind.MVN, "v", {"resp": Responsibilities(z=_Z, v=_V)}, ValueError),
    (Kind.CMVN, "v", {"resp": Responsibilities(z=_Z)}, ValueError),
    (Kind.CMVN, "z", {"resp": Responsibilities(z=[r[:1] for r in _Z], v=[r[:1] for r in _V])},
     ValueError),
    (Kind.CMVN, "z", {"resp": Responsibilities(z=[[np.nan, 1.0], *_Z[1:]], v=_V)}, ValueError),
    (Kind.CMVN, "v", {"resp": Responsibilities(z=_Z, v=[[np.inf, 0.3], *_V[1:]])}, ValueError),
    (Kind.CMVN, r"config\.g", {"config": FitConfig(g=3)}, ValueError),
    (Kind.CMVN, "start_index", {"config": FitConfig(g=2, n_starts=20), "start_index": 25},
     ValueError),
    (Kind.CMVN, "start_index", {"start_index": -1}, ValueError),
    (Kind.CMVN, "start_index", {"start_index": True}, TypeError),
    (Kind.CMVN, "start_index", {"start_index": 1.5}, TypeError),
    (Kind.CMVN, "loglik_trace", {"loglik_trace": [-3.0, np.nan, -2.5]}, ValueError),
    (Kind.CMVN, "loglik_trace", {"loglik_trace": []}, ValueError),
    (Kind.CMVN, "converged", {"converged": "no"}, TypeError),
]


@pytest.mark.parametrize("kind, name, extra, exc", _FIT_FAULTS, ids=[
    "v-on-mvn", "no-v-on-cmvn", "z-one-column", "z-nan", "v-inf", "config-g-not-g",
    "start-beyond-n-starts", "start-negative", "start-bool", "start-float", "trace-nan-inside",
    "trace-empty", "converged-text"])
def test_fit_result_refuses_each_fault_by_name(kind, name, extra, exc):
    with pytest.raises(exc, match=rf"\b{name}\b"):
        _small_result(kind, **extra)


def test_fit_result_stores_plain_converged_and_start_index():
    result = _small_result(Kind.CMVN, converged=np.bool_(True), start_index=np.int64(3))
    assert type(result.converged) is bool and result.converged
    assert type(result.start_index) is int and result.start_index == 3


@pytest.mark.parametrize("kind, alpha, converged, want", [
    (Kind.CMVN, 0.9, True, ()),
    (Kind.CMVN, 0.5, True, ("component 0: majority-bad (alpha=0.5000)",
                            "component 1: majority-bad (alpha=0.5000)")),
    (Kind.CMVN, 0.25, False, ("component 0: majority-bad (alpha=0.2500)",
                              "component 1: majority-bad (alpha=0.2500)",
                              "start 4 did not converge in max_iter=1000 iterations")),
    (Kind.MVN, 0.9, False, ("start 4 did not converge in max_iter=1000 iterations",)),
], ids=["cmvn-clean", "cmvn-alpha-half", "cmvn-bad-and-max-iter", "mvn-max-iter"])
def test_fit_result_derives_its_warnings(kind, alpha, converged, want):
    result = _small_result(kind, alpha=alpha, converged=converged, start_index=4)
    assert result.warnings == want


@pytest.mark.parametrize("name, value", [("hard_labels", [1, 0, 0]), ("bad_flags", None),
                                         ("iterations", 2), ("seed", 11), ("warnings", ())])
def test_fit_result_refuses_derived_values(name, value):
    with pytest.raises(TypeError, match=name):
        _small_result(Kind.CMVN, **{name: value})


@pytest.mark.parametrize("kind", [Kind.CMVN, Kind.MVN])
def test_fit_result_derives_labels_flags_iterations_and_seed(kind):
    result = _small_result(kind)
    labels, bad = classify_from(result.resp, kind)
    np.testing.assert_array_equal(result.hard_labels, labels)
    assert result.hard_labels.tolist() == [1, 0, 0]
    if kind is Kind.CMVN:
        np.testing.assert_array_equal(result.bad_flags, bad)
        assert result.bad_flags.tolist() == [True, False, True]  # v <= 0.5 is bad
        assert not result.bad_flags.flags.writeable
    else:
        assert result.bad_flags is None
    assert not result.hard_labels.flags.writeable
    assert (result.iterations, result.seed) == (2, 11)
    for name in ("hard_labels", "bad_flags", "iterations", "seed"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(result, name, None)


def test_dataset_refuses_a_str_of_names():
    with pytest.raises(TypeError, match="unit_names"):
        Dataset(np.zeros((3, 1, 1)), unit_names="abc")


def test_dataset_refuses_names_that_are_not_strings():
    with pytest.raises(TypeError, match="unit_names"):
        Dataset(np.zeros((2, 1, 1)), unit_names=[1, None])


_ONE = MvnParams(np.zeros((1, 1)), np.eye(1), np.eye(1))
_RECORDS = {  # each builds a record from one float array of outside values
    "Dataset": lambda a: Dataset(np.reshape(a, (-1, 1, 1))),
    "MvnParams": lambda a: MvnParams(np.reshape(a, (1, 1)), np.eye(1), np.eye(1)),
    "MixtureModel": lambda a: MixtureModel(kind=Kind.MVN, weights=np.reshape(a, (1,)),
                                           components=(_ONE,)),
    "Responsibilities": lambda a: Responsibilities(z=np.reshape(a, (1, 1))),
}


@pytest.mark.parametrize("value", [np.array(["1.0"]), np.array([1.0 + 0j]), np.array([True])],
                         ids=["text", "complex", "bool"])
@pytest.mark.parametrize("record", sorted(_RECORDS))
def test_records_refuse_arrays_they_would_cast(record, value):
    _RECORDS[record](np.array([1.0]))  # the float array itself is taken
    with pytest.raises(ValueError, match="must be of type float"):
        _RECORDS[record](value)


def test_cmvn_params_store_python_floats():
    comp = CmvnParams(_ONE, np.float64(0.9), np.float32(2))
    assert type(comp.alpha) is float and type(comp.eta) is float
    assert (comp.alpha, comp.eta) == (0.9, 2.0)


@pytest.mark.parametrize("eta", [np.nan, np.inf], ids=["nan", "infinite"])
def test_cmvn_params_refuse_non_finite_eta(eta):
    base = MvnParams(np.zeros((1, 1)), np.eye(1), np.eye(1))
    with pytest.raises(ValueError, match="eta must be"):
        CmvnParams(base, 0.9, eta)


@pytest.mark.parametrize("weights", [[np.nan, 0.5], [np.nan, np.nan], [np.inf, 0.5]],
                         ids=["one-nan", "all-nan", "infinite"])
def test_mixture_model_refuses_non_finite_weights(weights):
    comp = MvnParams(np.zeros((1, 1)), np.eye(1), np.eye(1))
    with pytest.raises(ValueError, match="weights must be strictly positive"):
        MixtureModel(kind=Kind.MVN, weights=weights, components=(comp, comp))


def test_responsibilities_keep_non_finite_posteriors():
    # a start whose unit has no finite density yields NaN z; fit reports it as
    # a non-finite log-likelihood, so the record must not refuse it
    resp = Responsibilities(z=[[np.nan, np.nan]], v=[[0.5, np.nan]])
    assert np.isnan(resp.z).all()
