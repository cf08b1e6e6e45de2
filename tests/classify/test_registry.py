"""The unified Classifier protocol + registry (the serve API redesign)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classify import (
    Classifier,
    HDCClassifier,
    HDCEncoder,
    KNNClassifier,
    classifier_from_dict,
    classifier_names,
    get_classifier,
)
from repro.errors import ConfigError, ValidationError


@pytest.fixture()
def shots():
    rng = np.random.default_rng(5)
    shots_0 = rng.normal(-1.0, 0.2, (3, 40, 2))
    shots_1 = rng.normal(1.0, 0.2, (3, 40, 2))
    return shots_0, shots_1


def test_registry_names():
    assert classifier_names() == ["hdc", "knn"]
    assert get_classifier("knn") is KNNClassifier
    assert get_classifier("hdc") is HDCClassifier


def test_unknown_classifier_is_config_error():
    with pytest.raises(ConfigError, match="no classifier 'svm'") as err:
        get_classifier("svm")
    assert err.value.field == "model"


@pytest.mark.parametrize("kind", ["knn", "hdc"])
def test_calibrate_predict_protocol(kind, shots):
    clf = get_classifier(kind).calibrate(*shots)
    assert isinstance(clf, Classifier)
    assert clf.kind == kind
    assert clf.n_qubits == 3
    rng = np.random.default_rng(9)
    iq = rng.normal(0.0, 1.0, (30, 2))
    labels = clf.predict(iq)
    # interleaved default == explicit arange(n) % n_qubits
    qubit = np.arange(30) % 3
    np.testing.assert_array_equal(labels, clf.predict(iq, qubit=qubit))
    np.testing.assert_array_equal(labels, clf.classify_interleaved(iq))
    assert set(np.unique(labels)) <= {0, 1}


@pytest.mark.parametrize("kind", ["knn", "hdc"])
def test_round_trip_preserves_digest_and_labels(kind, shots):
    clf = get_classifier(kind).calibrate(*shots)
    clone = classifier_from_dict(clf.to_dict())
    assert type(clone) is type(clf)
    assert clone.model_digest == clf.model_digest
    iq = np.random.default_rng(2).normal(0.0, 1.0, (24, 2))
    np.testing.assert_array_equal(clone.predict(iq), clf.predict(iq))


def test_different_calibrations_have_different_digests(shots):
    a = KNNClassifier.calibrate(*shots)
    b = KNNClassifier.calibrate(shots[0] + 0.1, shots[1])
    assert a.model_digest != b.model_digest


def test_classifier_from_dict_requires_kind():
    with pytest.raises((ConfigError, KeyError)):
        classifier_from_dict({"centers": [[[0, 0], [1, 1]]]})


@pytest.mark.parametrize("kind", ["knn", "hdc"])
@pytest.mark.parametrize("bad, match", [
    (np.zeros((3, 2)), "shape"),                   # wrong rank
    (np.zeros((0, 10, 2)), "empty"),               # no qubits
    (np.zeros((3, 0, 2)), "empty"),                # no shots
    (np.full((3, 10, 2), np.nan), "non-finite"),   # NaN I/Q
], ids=["rank", "no-qubits", "no-shots", "nan"])
def test_malformed_calibration_shots_rejected(kind, bad, match):
    good = np.zeros((3, 10, 2))
    with pytest.raises(ValidationError, match=match) as err:
        get_classifier(kind).calibrate(bad, good)
    assert "shots_0" in str(err.value)
    with pytest.raises(ValidationError, match="shots_1"):
        get_classifier(kind).calibrate(good, bad)


def test_qubit_count_mismatch_rejected(shots):
    with pytest.raises(ValidationError, match="disagree"):
        KNNClassifier.calibrate(shots[0], shots[1][:2])


@pytest.mark.parametrize("kind", ["knn", "hdc"])
def test_malformed_predict_points_rejected(kind, shots):
    clf = get_classifier(kind).calibrate(*shots)
    with pytest.raises(ValidationError, match="iq"):
        clf.predict(np.zeros((4, 3)))
    with pytest.raises(ValidationError, match="non-finite"):
        clf.predict([[np.inf, 0.0]])
    with pytest.raises(ValidationError, match="qubit"):
        clf.predict(np.zeros((4, 2)), qubit=[0, 1])
    with pytest.raises(ValidationError, match="qubit"):
        clf.predict(np.zeros((2, 2)), qubit=[0, 99])


def test_hdc_legacy_calibrate_shim(shots):
    """The historical calibrate(encoder, centers) form is gone: an
    encoder passed as shots_0 is rejected by shot validation."""
    encoder = HDCEncoder.random(seed=4)
    centers = np.stack([shots[0].mean(axis=1), shots[1].mean(axis=1)],
                       axis=1)
    with pytest.raises(ValidationError, match="shots_0"):
        HDCClassifier.calibrate(encoder, centers)


def test_duplicate_registration_rejected():
    from repro.classify.registry import register_classifier

    class Fake(KNNClassifier):
        kind = "knn"

    with pytest.raises(ValueError, match="already registered"):
        register_classifier(Fake)

    class Anon(KNNClassifier):
        kind = ""

    with pytest.raises(ValueError, match="kind"):
        register_classifier(Anon)
