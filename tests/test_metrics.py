import os
import shutil
import subprocess

import numpy as np
import pytest

from tsfo import metrics
from tsfo.errors import ConfigError, InputError
from tsfo.metrics import (
    EnergyParams,
    MetricsReport,
    RunStats,
    attention_complexity,
    ci95,
    efficiency_score,
    energy_model,
    energy_saving_pct,
    round_sig,
    speedup,
)
from tsfo.model import ModelConfig
from tsfo.pruning import pruned_energy_estimate
from tsfo.quantization import quantized_energy_estimate
from tsfo.tensor import seeded_rng


class TestAttentionComplexity:
    def test_substitution(self):
        assert attention_complexity(96, 64) == 983_040

    def test_boundary(self):
        assert attention_complexity(1, 1) == 2

    def test_term_balance_only_on_diagonal(self):
        # the total factors as t*d*(t+d), so it is always swap-symmetric;
        # the quadratic and linear terms themselves only coincide at t == d
        assert attention_complexity(4, 2) == attention_complexity(2, 4)
        t, d = 4, 2
        assert t * t * d != t * d * d
        t = d = 3
        assert t * t * d == t * d * d

    def test_matches_model_core_term(self):
        cfg = ModelConfig(
            num_layers=2, num_heads=8, model_dim=64, ffn_dim=256, patch_size=8,
            patch_stride=8, seq_len=768, num_classes=3,
        )
        # seq_len chosen so the patch count is 96
        assert cfg.num_patches == 96
        core = attention_complexity(cfg.num_patches, cfg.model_dim)
        assert core == 96**2 * 64 + 96 * 64**2 == 983040

    def test_single_patch_boundary(self):
        cfg = ModelConfig(
            num_layers=1, num_heads=2, model_dim=8, ffn_dim=8, patch_size=6,
            patch_stride=6, seq_len=6,
        )
        d = cfg.model_dim
        assert attention_complexity(cfg.num_patches, d) == d + d * d


class TestEnergyModel:
    def test_unit_identity(self):
        params = EnergyParams(1.0, 1.0, 1.0, 1.0)
        assert energy_model(params, 1.0) == 1.0

    def test_voltage_squared(self):
        base = energy_model(EnergyParams(0.1, 1e-9, 1.0, 2e9), 0.5)
        doubled = energy_model(EnergyParams(0.1, 1e-9, 2.0, 2e9), 0.5)
        assert doubled == pytest.approx(4 * base)

    def test_substitution(self):
        params = EnergyParams(0.1, 1e-9, 1.2, 2e9)
        assert energy_model(params, 0.01) == pytest.approx(0.00288)

    def test_validation(self):
        with pytest.raises(ConfigError):
            EnergyParams(activity_factor=1.5)
        with pytest.raises(ConfigError):
            EnergyParams(voltage_v=0.0)


class TestCi95:
    def test_constant_samples(self):
        stats = ci95([3.0, 3.0, 3.0])
        assert stats.mean == 3.0
        assert stats.ci95_half == 0.0

    def test_two_samples_hand_computed(self):
        stats = ci95([2.0, 4.0])
        assert stats.mean == 3.0
        assert stats.std == pytest.approx(np.sqrt(2))
        assert stats.ci95_half == pytest.approx(1.96)

    def test_single_sample_flagged(self):
        stats = ci95([5.0])
        assert stats.n == 1
        assert stats.std == stats.ci95_half == 0.0

    def test_against_two_pass_oracle(self):
        rng = seeded_rng(0)
        samples = rng.normal(3.0, 2.0, size=1000)
        stats = ci95(samples)
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / (len(samples) - 1)
        assert abs(stats.mean - mean) < 1e-9
        assert abs(stats.std - np.sqrt(var)) < 1e-9
        assert abs(stats.ci95_half - 1.96 * np.sqrt(var) / np.sqrt(1000)) < 1e-9

    def test_half_width_shrinks_like_sqrt_n(self):
        # samples constructed to have sample std exactly 1 for every n
        def half(n):
            c = np.sqrt((n - 1) / 2.0)
            samples = [c, -c] + [0.0] * (n - 2)
            stats = ci95(samples)
            assert stats.std == pytest.approx(1.0)
            return stats.ci95_half

        h4, h16, h64 = half(4), half(16), half(64)
        assert h4 / h16 == pytest.approx(2.0, rel=1e-9)
        assert h16 / h64 == pytest.approx(2.0, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            ci95([])


class TestRatios:
    def test_speedup_published_inputs(self):
        assert speedup(6.42, 4.35) == pytest.approx(1.476, abs=5e-4)

    def test_speedup_trivial(self):
        assert speedup(2.0, 2.0) == 1.0
        assert speedup(2.0, 1.0) == 2.0

    def test_speedup_validation(self):
        with pytest.raises(InputError):
            speedup(0.0, 1.0)

    def test_energy_saving_published_inputs(self):
        assert energy_saving_pct(35.3, 25.1) == pytest.approx(28.90, abs=5e-3)

    def test_energy_saving_trivial(self):
        assert energy_saving_pct(10.0, 10.0) == 0.0
        assert energy_saving_pct(10.0, 0.0) == 100.0

    def test_energy_saving_validation(self):
        with pytest.raises(InputError):
            energy_saving_pct(0.0, 1.0)


# (EE GFLOPS/J, AR %, published overall score) for all six trade-off rows
TRADEOFF_ROWS = [
    (0.106, 100.0, 10.60),
    (0.150, 96.8, 14.52),
    (0.168, 95.2, 15.99),
    (0.182, 100.0, 18.20),
    (0.251, 97.5, 24.47),
    (0.278, 95.8, 26.63),
]


class TestEfficiencyScore:
    @pytest.mark.parametrize("ee,ar,overall", TRADEOFF_ROWS)
    def test_tradeoff_rows(self, ee, ar, overall):
        # feed flops/energy/accuracy pairs that reproduce the published EE/AR
        got_ee, got_ar, got_overall = efficiency_score(ee * 10.0, 10.0, ar, 100.0)
        assert got_ee == pytest.approx(ee, abs=1e-12)
        assert got_ar == pytest.approx(ar, abs=1e-12)
        assert got_overall == pytest.approx(overall, abs=0.01)

    def test_equal_accuracy_full_retention(self):
        _, ar, _ = efficiency_score(1.0, 1.0, 73.2, 73.2)
        assert ar == 100.0

    def test_validation(self):
        with pytest.raises(InputError):
            efficiency_score(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(InputError):
            efficiency_score(1.0, 1.0, 1.0, 0.0)


class TestComposition:
    def test_prune_quantize_order_independent(self):
        # E*(1-p)/Q must come out the same in either order
        e, p, q = 42.0, 0.37, 4.0
        a = quantized_energy_estimate(pruned_energy_estimate(e, p), q)
        b = pruned_energy_estimate(quantized_energy_estimate(e, q), p)
        assert a == pytest.approx(b)
        assert a == pytest.approx(e * (1 - p) / q)


def test_round_sig():
    assert round_sig(14.5178) == 14.52
    assert round_sig(0.00123456) == 0.001235
    assert round_sig(0.0) == 0.0


def dummy_report():
    return MetricsReport(
        configuration="baseline", accuracy_pct=90.0, accuracy_ci_half=1.0,
        accuracy_drop_pct=0.0, inference_ms=ci95([1.0, 2.0]), modeled_energy_j=1.0,
        measured_energy_j=1.0, memory_mb=1.0, flops_g=0.1, speedup=1.0,
        energy_saving_pct=0.0, ee_gflops_per_j=1.0, accuracy_retention_pct=100.0,
        overall_score=100.0,
    )


class TestEnvironment:
    CACHES = (metrics._environment, metrics._openblas_threads, metrics._warn_unpinned)

    @pytest.fixture(autouse=True)
    def fresh_cache(self, monkeypatch):
        # no OpenBLAS, so no test calls the real setter (tests/test_bench_cli.py fakes one)
        monkeypatch.setattr(metrics, "_loaded_openblas", lambda: None)
        for cached in self.CACHES:
            cached.cache_clear()
        yield
        for cached in self.CACHES:
            cached.cache_clear()

    def test_block_in_every_report_row(self):
        env = dummy_report().to_dict()["provenance"]["environment"]
        assert set(env) == {
            "python", "numpy", "blas", "cpu_count", "blas_threads_pinned",
            "blas_threads", "thread_env", "git_commit",
        }
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["blas_threads_pinned"] == (env["blas_threads"] == 1)

    def test_computed_once_and_same_for_every_call(self, monkeypatch):
        calls = []
        monkeypatch.setattr(metrics, "_git_commit", lambda: calls.append(1) or "abc123")
        report = dummy_report()
        first = report.to_dict()["provenance"]["environment"]
        first["cpu_count"] = -1  # a caller's edit must not leak into the cache
        second = report.to_dict()["provenance"]["environment"]
        assert calls == [1]
        assert second["git_commit"] == "abc123" and second["cpu_count"] == os.cpu_count()
        assert second == dummy_report().to_dict()["provenance"]["environment"]

    @pytest.mark.parametrize(
        "env",
        [{"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "4"}, {}],
    )
    def test_thread_env_records_the_variables_and_pins_nothing(self, monkeypatch, env):
        """The variables are recorded as set; without an OpenBLAS setter nothing is
        pinned, whatever they say."""
        for var in metrics.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        env_block = metrics.environment()
        assert env_block["thread_env"] == env
        assert (env_block["blas_threads"], env_block["blas_threads_pinned"]) == (None, False)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
class TestGitCommit:
    @staticmethod
    def commit_tree(root, *files):
        """A git work tree at ``root`` holding ``files`` in one commit; its HEAD."""
        def git(*args):
            return subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                 "-c", "commit.gpgsign=false", *args],
                cwd=root, capture_output=True, text=True, check=True,
            ).stdout.strip()

        for name in files:
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("# a copy\n")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "init")
        return git("rev-parse", "HEAD")

    def test_records_the_work_tree_that_holds_this_module(self, tmp_path, monkeypatch):
        head = self.commit_tree(tmp_path, "src/tsfo/metrics.py")
        monkeypatch.setattr(metrics, "__file__", str(tmp_path / "src" / "tsfo" / "metrics.py"))
        assert metrics._git_commit() == head

    @pytest.mark.parametrize("with_own_source", [False, True])
    def test_a_copy_inside_another_work_tree_records_none(self, tmp_path, monkeypatch,
                                                          with_own_source):
        """A ``tsfo`` installed inside another project's work tree records no commit
        of that project, even when the project holds a ``src/tsfo/metrics.py``."""
        installed = "lib/site-packages/tsfo/metrics.py"
        self.commit_tree(tmp_path, installed, *["src/tsfo/metrics.py"] * with_own_source)
        monkeypatch.setattr(metrics, "__file__", str(tmp_path / installed))
        assert metrics._git_commit() is None

    def test_outside_any_work_tree_records_none(self, tmp_path, monkeypatch):
        module = tmp_path / "site-packages" / "tsfo" / "metrics.py"
        module.parent.mkdir(parents=True)
        module.write_text("# a copy\n")
        monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
        monkeypatch.setattr(metrics, "__file__", str(module))
        assert metrics._git_commit() is None


def test_runstats_serialization():
    stats = ci95([1.0, 2.0, 3.0])
    d = stats.to_dict()
    assert RunStats(**d) == stats
