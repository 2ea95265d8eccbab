"""The benchmark's traced run (``bench/tracing.py``) wraps module-level names
of ``otfsnoma``; each must stay bound in its module, and the production path
must look it up there, or the traced run stops seeing the calls."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from otfsnoma import ChannelProfile, ScenarioConfig

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module, name", tracing.TRACED)
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"otfsnoma.{module}"), name))


def test_traced_run_sees_dfe_layers():
    from otfsnoma import harness

    cfg = ScenarioConfig(direction="downlink", n=4, m=4, k_users=4, gamma0_sq=0.75,
                         rate_u0=0.5, rate_noma=1.0, equalizer="dfe", snr_db=(0.0,),
                         trials=8, seed=3,
                         u0_profile=ChannelProfile(paths=((0, 0), (1, 1), (2, 3))))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        harness.run_scenario(cfg)
    finally:
        tracer.restore()
    # the FD-DFE pivots come from the Gram taps without a dense matrix, the
    # static users' stage I is decided by their FD-LE φ = 1/λ₀, and the
    # spectra come from the paths, not from FFTs of the taps, so neither the
    # static pivots, static_gram_taps nor the FFT spectra are on the
    # production path
    seen = set(tracer.self_times())
    assert "transforms.dense_block_circulant" not in seen
    assert "equalizers.batch_static_lambdas" not in seen
    assert "transforms.spectrum_from_taps" not in seen
    assert "transforms.static_spectrum_from_taps" not in seen
    assert seen == {
        "harness.run_scenario", "rng.substream", "grid_channel.sample_gain_matrix",
        "equalizers.gram_taps_from_gains", "equalizers.batch_dfe_lambdas",
        "scheduling.batch_schedule",
    }
