import json

import pytest

from deadline_matching import (ArrivalOrder, OnlineInstance, WeightedGraph,
                               load_certificate, load_instance, save_instance)
from deadline_matching.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoverLP:
    def test_prints_alpha_and_writes_verifying_certificate(self, capsys, tmp_path):
        out_path = tmp_path / "d1.json"
        code, out, _ = run(capsys, "cover-lp", "--variant", "lp", "--d", "1",
                           "--out", str(out_path))
        assert code == 0
        assert "alpha = 2/1" in out
        cert = load_certificate(out_path)
        assert cert.alpha == 2
        code, out, _ = run(capsys, "verify-cert", "--cert", str(out_path),
                           "--target", "cycle:8:1")
        assert code == 0 and out.startswith("OK")


class TestSimulate:
    def test_exact_pg_on_tightness(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gallery", "pg-tightness",
                           "--param", "eps=1/10", "--policy", "pg", "--exact")
        assert code == 0
        assert "E=1/2" in out
        assert "OPT=19/10" in out
        assert "ratio=5/19" in out

    def test_multiple_policies(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gallery", "basic-tradeoff",
                           "--param", "y=2", "--policy", "batching,patient",
                           "--exact")
        assert code == 0
        assert out.count("E=1/1") == 2


class TestVerifyCert:
    def test_corruption_detected(self, capsys, tmp_path):
        cert_path = tmp_path / "cert.json"
        run(capsys, "cover-lp", "--variant", "lp", "--d", "1",
            "--out", str(cert_path))
        data = json.loads(cert_path.read_text())
        data["columns"][0]["lambda"] = "0/1"
        data["alpha"] = _subtract(data["alpha"], data_lambda_was="1/1")
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(data))
        code, out, _ = run(capsys, "verify-cert", "--cert", str(broken),
                           "--target", "cycle:8:1")
        assert code == 1
        assert "uncovered" in out


def _subtract(alpha_str, data_lambda_was):
    from fractions import Fraction
    return str(Fraction(alpha_str) - Fraction(data_lambda_was))


class TestCertificatePipeline:
    def test_extend_contract_lookahead(self, capsys, tmp_path):
        base = tmp_path / "p2.json"
        code, out, _ = run(capsys, "cover-lp", "--variant", "lp-prime",
                           "--k", "2", "--out", str(base))
        assert code == 0 and "alpha = 4/1" in out

        lifted = tmp_path / "lifted.json"
        code, out, _ = run(capsys, "contract-cert", "--cert", str(base),
                           "--d", "3", "--out", str(lifted))
        assert code == 0
        assert "alpha = 4/1" in out

        extended = tmp_path / "ext.json"
        code, out, _ = run(capsys, "extend-cert", "--cert", str(base),
                           "--n", "16", "--target", "cycle:16:2",
                           "--out", str(extended))
        assert code == 0

        look = tmp_path / "look.json"
        code, out, _ = run(capsys, "lookahead-cert", "--n", "8", "--d", "2",
                           "--l", "1", "--out", str(look))
        assert code == 0 and "alpha = 2/1" in out


class TestGalleryAndSweep:
    def test_gallery_emits_loadable_instance(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        code, out, _ = run(capsys, "gallery", "--name", "pg-tightness",
                           "--param", "eps=1/10", "--out", str(path))
        assert code == 0
        inst = load_instance(path)
        assert inst.n == 4 and inst.deadline == 2

    def test_sweep_deterministic_csv(self, capsys, tmp_path):
        inst_path = tmp_path / "inst.json"
        run(capsys, "gallery", "--name", "random-order-3cycle",
            "--param", "v12=1/1000", "--param", "v23=1/1000", "--param", "v31=1",
            "--out", str(inst_path))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out_path in (out1, out2):
            code, _, _ = run(capsys, "sweep", "--instance", str(inst_path),
                             "--policy", "batching,patient", "--arrival",
                             "uniform", "--exact", "--out", str(out_path))
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0].startswith("instance_id,policy")
        assert len(lines) == 3


class TestErrors:
    def test_bad_flags_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--policy"])
        assert excinfo.value.code == 2

    def test_unknown_policy_exits_one(self, capsys):
        code, _, err = run(capsys, "simulate", "--gallery", "basic-tradeoff",
                           "--policy", "nonsense", "--exact")
        assert code == 1
        assert "unknown policy" in err

    def test_offline_subcommand(self, capsys):
        code, out, _ = run(capsys, "offline", "--gallery", "pg-tightness",
                           "--param", "eps=1/10")
        assert code == 0
        assert "OPT=19/10" in out
        assert "(1,3)" in out and "(2,4)" in out

    def test_offline_beyond_the_subset_cap(self, capsys, tmp_path):
        n = 40
        path = tmp_path / "path40.json"
        weights = {(i, i + 1): i % 3 + 1 for i in range(1, n)}
        save_instance(OnlineInstance(WeightedGraph(n, weights), ArrivalOrder.identity(n), 2),
                      path)
        code, out, _ = run(capsys, "offline", "--instance", str(path))
        assert code == 0
        assert out.startswith(f"instance={path} OPT=") and " pairs=(" in out
