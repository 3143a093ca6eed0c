"""HRV features and the RR baseline's discriminative behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ecg import rr_feature_matrix
from repro.ecg.hrv import HRV_FEATURE_NAMES, hrv_features
from tests.ecg.conftest import generate_af, generate_nsr


def test_feature_vector_shape_and_names():
    rr = np.full(20, 0.8)
    feats = hrv_features(rr)
    assert feats.shape == (len(HRV_FEATURE_NAMES),)


def test_constant_rr_zero_variability():
    feats = dict(zip(HRV_FEATURE_NAMES, hrv_features(np.full(30, 0.8))))
    assert feats["mean_rr"] == pytest.approx(0.8)
    assert feats["sdnn"] == pytest.approx(0.0, abs=1e-12)
    assert feats["rmssd"] == pytest.approx(0.0, abs=1e-12)
    assert feats["pnn50"] == 0.0


def test_too_short_series_zeros():
    assert (hrv_features(np.array([0.8, 0.9])) == 0).all()


def test_irregular_rr_higher_variability():
    rng = np.random.default_rng(0)
    regular = rng.normal(0.8, 0.02, 50)
    irregular = rng.normal(0.65, 0.18, 50)
    f_reg = dict(zip(HRV_FEATURE_NAMES, hrv_features(regular)))
    f_irr = dict(zip(HRV_FEATURE_NAMES, hrv_features(irregular)))
    assert f_irr["sdnn"] > f_reg["sdnn"]
    assert f_irr["rmssd"] > f_reg["rmssd"]
    assert f_irr["pnn50"] > f_reg["pnn50"]


def test_rr_matrix_separates_af_from_nsr():
    """The RR baseline's core competence: AF recordings score higher on
    variability features."""
    rng = np.random.default_rng(1)
    nsr = [generate_nsr(30.0, rng) for _ in range(6)]
    af = [generate_af(30.0, rng) for _ in range(6)]
    m_nsr = rr_feature_matrix(nsr)
    m_af = rr_feature_matrix(af)
    rmssd_idx = HRV_FEATURE_NAMES.index("rmssd")
    assert m_af[:, rmssd_idx].mean() > 2 * m_nsr[:, rmssd_idx].mean()


def test_rr_matrix_empty():
    assert rr_feature_matrix([]).shape == (0, len(HRV_FEATURE_NAMES))
