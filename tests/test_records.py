"""The record constructors keep their own copy of the arrays they validate."""

import numpy as np

from cmvmix.data import Dataset
from cmvmix.distributions import MvnParams
from cmvmix.ecm import Kind, MixtureModel


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
