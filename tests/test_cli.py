import json

import pytest

from deadline_matching import (ArrivalOrder, OnlineInstance, WeightedGraph,
                               load_certificate, load_instance, save_instance,
                               verify_certificate)
from deadline_matching import cli
from deadline_matching.cli import main
from helpers import unit_pairs


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

    def test_exact_over_the_flip_cap(self, capsys, tmp_path):
        path = tmp_path / "units.json"
        save_instance(unit_pairs(), path)  # naive-greedy flips 44 coins
        code, out, _ = run(capsys, "simulate", "--instance", str(path),
                           "--policy", "naive-greedy", "--exact")
        assert code == 0
        assert out == (f"instance={path} policy=naive-greedy (exact) "
                       "E=11/2 OPT=22/1 ratio=1/4\n")

    def test_monte_carlo_runs(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gallery", "basic-tradeoff",
                           "--param", "y=2", "--policy", "naive-greedy,batching",
                           "--seeds", "3")
        assert code == 0
        assert out.splitlines() == [
            "instance=basic-tradeoff policy=naive-greedy (3 runs) E=2/1 OPT=2/1 ratio=1/1",
            "instance=basic-tradeoff policy=batching (3 runs) E=1/1 OPT=2/1 ratio=1/2"]

    def test_multiple_policies(self, capsys):
        code, out, _ = run(capsys, "simulate", "--gallery", "basic-tradeoff",
                           "--param", "y=2", "--policy", "batching,patient",
                           "--exact")
        assert code == 0
        assert out.count("E=1/1") == 2

    def test_every_policy_is_reported_after_a_failure(self, capsys, tmp_path):
        # vertex 1 departs at time 2, before pg and naive-greedy finalize (1, 2)
        path = tmp_path / "departing.json"
        path.write_text(json.dumps({
            "n": 4, "d": 2, "edges": [[1, 2, 2], [2, 4, 1], [3, 4, 3]],
            "sigma": [2, 1, 4, 3], "departures": [0, 3, 1, 2]}))
        code, out, err = run(capsys, "simulate", "--instance", str(path),
                             "--policy", "patient,pg,naive-greedy", "--exact")
        assert code == 1
        assert out.splitlines() == [f"instance={path} policy=patient (exact) "
                                    "E=5/1 OPT=5/1 ratio=1/1"]
        assert err.splitlines() == [
            f"error: policy {name} emitted pair (1, 2) at time 4 invalid: "
            "matched after vertex 1 departed at time 2" for name in ("pg", "naive-greedy")]


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

    def test_extend_checks_an_lp_prime_certificate_at_power_d_plus_1(
            self, capsys, tmp_path, monkeypatch):
        # An lp-prime certificate covers C^{d+1}, which extend_cover verifies;
        # the CLI checks the file it wrote at that power too, and only once.
        base = tmp_path / "p2.json"
        run(capsys, "cover-lp", "--variant", "lp-prime", "--k", "2", "--out", str(base))
        d = load_certificate(base).d
        checked = []

        def recording(cert, target):
            checked.append((target.n, len(target.weights) // target.n))  # (n, power)
            return verify_certificate(cert, target)

        monkeypatch.setattr(cli, "verify_certificate", recording)
        code, out, _ = run(capsys, "extend-cert", "--cert", str(base), "--n", "16",
                           "--out", str(tmp_path / "ext.json"))
        assert code == 0 and "verified against n=16" in out
        assert checked == [(16, d + 1)]

    def test_contract_prints_the_inflation_off_the_batch_size(self, capsys, tmp_path):
        base, lifted = tmp_path / "p3.json", tmp_path / "lifted.json"
        run(capsys, "cover-lp", "--variant", "lp-prime", "--k", "3", "--out", str(base))
        code, out, _ = run(capsys, "contract-cert", "--cert", str(base),
                           "--d", "4", "--out", str(lifted))  # v = 5 mod 3 = 2
        assert code == 0
        assert out.splitlines()[:2] == [
            "subset-family inflation: certified 10/3, squared-loss formula 25/9",
            "alpha = 10/1"]


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

    def test_sweep_from_the_gallery(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        code, _, _ = run(capsys, "sweep", "--gallery", "pg-tightness",
                         "--policy", "pg,greedy", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().splitlines()[1:] == [
            "pg-tightness,pg,fixed,4,2,exact,1/2,19/10,5/19",
            "pg-tightness,greedy,fixed,4,2,exact,1/1,19/10,10/19"]

    def test_sweep_infers_roles_like_simulate(self, capsys, tmp_path):
        # instance files carry no roles; greedy and dda need them inferred
        inst_path = tmp_path / "pgt.json"
        run(capsys, "gallery", "--name", "pg-tightness", "--out", str(inst_path))
        code, out, _ = run(capsys, "simulate", "--instance", str(inst_path),
                           "--policy", "greedy,dda", "--exact")
        assert code == 0 and out.count("E=1/1") == 2
        out_path = tmp_path / "s.csv"
        code, _, err = run(capsys, "sweep", "--instance", str(inst_path),
                           "--policy", "greedy,dda", "--out", str(out_path))
        assert (code, err) == (0, "")
        assert out_path.read_text().splitlines()[1:] == [
            f"{inst_path},{name},fixed,4,2,exact,1/1,19/10,10/19"
            for name in ("greedy", "dda")]


class TestErrors:
    def test_bad_flags_exit_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--policy"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["offline", "--gallery", "basic-tradeoff", "--param", "y"], "expects key=value"),
        (["lookahead-cert", "--n", "9", "--d", "1", "--l", "1", "--target", "ring:9:1",
          "--out", "unused.json"], "unknown target spec"),
        (["simulate", "--policy", "pg"], "need --instance PATH or --gallery NAME"),
        (["sweep", "--policy", "pg", "--out", "unused.csv"], "sweep needs at least one"),
        (["cover-lp", "--variant", "lp"], "--variant lp needs --d"),
        (["cover-lp", "--variant", "lp-prime"], "--variant lp-prime needs --k"),
    ])
    def test_usage_errors_exit_two_with_one_line(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

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


class TestMalformedInput:
    """Each malformed file or flag ends with one line, never a traceback."""

    @staticmethod
    def one_line_error(capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def write(self, tmp_path, data):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_edge_entry_that_is_not_a_list(self, capsys, tmp_path):
        path = self.write(tmp_path, {"n": 2, "d": 1, "edges": [5]})
        err = self.one_line_error(capsys, "offline", "--instance", path)
        assert "is not [i, j, weight]" in err

    def test_instance_weight_with_zero_denominator(self, capsys, tmp_path):
        path = self.write(tmp_path, {"n": 2, "d": 1, "edges": [[1, 2, "1/0"]]})
        err = self.one_line_error(capsys, "offline", "--instance", path)
        assert "zero denominator" in err

    def certificate(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        run(capsys, "cover-lp", "--variant", "lp", "--d", "1", "--out", str(path))
        return json.loads(path.read_text())

    def test_certificate_lambda_with_zero_denominator(self, capsys, tmp_path):
        data = self.certificate(capsys, tmp_path)
        data["columns"][0]["lambda"] = "1/0"
        path = self.write(tmp_path, data)
        err = self.one_line_error(capsys, "verify-cert", "--cert", path,
                                  "--target", "cycle:8:1")
        assert "zero denominator" in err

    def test_certificate_period_zero(self, capsys, tmp_path):
        data = self.certificate(capsys, tmp_path)
        data["period"] = 0
        path = self.write(tmp_path, data)
        err = self.one_line_error(capsys, "verify-cert", "--cert", path,
                                  "--target", "cycle:8:1")
        assert "period must be positive" in err

    @pytest.mark.parametrize("field, value, message", [
        ("n", 8.9, "as an integer"),
        ("d", True, "as an integer"),
        ("n", 10**30, "exceeds the limit"),
    ])
    def test_certificate_header_fields(self, capsys, tmp_path, field, value, message):
        data = self.certificate(capsys, tmp_path)
        data[field] = value
        path = self.write(tmp_path, data)
        err = self.one_line_error(capsys, "verify-cert", "--cert", path,
                                  "--target", "cycle:8:1")
        assert message in err

    def test_certificate_batch_entries_refuse_floats(self, capsys, tmp_path):
        data = self.certificate(capsys, tmp_path)
        data["columns"][0]["batches"][0] = [1.7, 2.2]
        path = self.write(tmp_path, data)
        err = self.one_line_error(capsys, "verify-cert", "--cert", path,
                                  "--target", "cycle:8:1")
        assert "as an integer" in err

    @pytest.mark.parametrize("model, message", [
        ({"kind": "tabulated", "pmf": [1, 2]}, "'pmf' as an object"),
        ({"kind": "tabulated", "pmf": {"0": "1/0"}}, "zero denominator"),
        ({"kind": "geometric", "delta": "1/0"}, "zero denominator"),
    ])
    def test_malformed_departure_model(self, capsys, tmp_path, model, message):
        path = self.write(tmp_path, {"n": 2, "d": 1, "edges": [[1, 2, 1]],
                                     "departure_model": model})
        err = self.one_line_error(capsys, "offline", "--instance", path)
        assert message in err

    @pytest.mark.parametrize("data, message", [
        ({"n": 2.7, "d": 1.9, "edges": [], "departures": [0.5, 1.2]}, "integer 'n' and 'd'"),
        ({"n": 2, "d": True, "edges": []}, "integer 'n' and 'd'"),
        ({"n": 2, "d": 1, "edges": [[1.0, 2, 1]]}, "as an integer"),
        ({"n": 2, "d": 1, "edges": [], "sigma": [2.0, 1.0]}, "'sigma'"),
        ({"n": 2, "d": 1, "edges": [], "departures": [0.5, 1.2]}, "'departures'"),
        ({"n": 2, "d": 1, "edges": [], "departures": [False, 1]}, "'departures'"),
        ({"n": 2, "d": 1, "edges": [], "departure_model": {"kind": "deterministic", "d": 2.5}},
         "as an integer"),
    ])
    def test_integer_fields_refuse_floats_and_booleans(self, capsys, tmp_path, data, message):
        path = self.write(tmp_path, data)
        err = self.one_line_error(capsys, "offline", "--instance", path)
        assert message in err

    def test_departures_and_a_departure_model_together(self, capsys, tmp_path):
        path = self.write(tmp_path, {"n": 2, "d": 1, "edges": [[1, 2, 1]], "departures": [0, 4],
                                     "departure_model": {"kind": "deterministic", "d": 2}})
        err = self.one_line_error(capsys, "offline", "--instance", path)
        assert "not both" in err

    @pytest.mark.parametrize("argv, message", [
        (["offline", "--gallery", "basic-tradeoff", "--param", "y=1/0"], "zero denominator"),
        (["gallery", "--name", "basic-tradeoff", "--param", "y=1/0"], "zero denominator"),
        (["offline", "--gallery", "basic-tradeoff", "--param", "z=1"], "no parameter 'z'"),
    ])
    def test_bad_gallery_parameters(self, capsys, argv, message):
        err = self.one_line_error(capsys, *argv)
        assert message in err

    @pytest.mark.parametrize("target", ["cycle:x:1", "cycle:9:", "cycle:9:1.5"])
    def test_non_integer_target_is_a_usage_error(self, capsys, target):
        code, out, err = run(capsys, "lookahead-cert", "--n", "9", "--d", "1", "--l", "1",
                             "--target", target, "--out", "unused.json")
        assert code == 2 and out == ""
        assert err == f"error: unknown target spec {target!r}; use cycle:N:D\n"

    def test_vertex_count_beyond_the_cap(self, capsys, tmp_path):
        path = self.write(tmp_path, {"n": 10**30, "d": 1, "edges": []})
        err = self.one_line_error(capsys, "offline", "--instance", path)
        assert "exceeds the limit" in err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--gallery", "basic-tradeoff", "--policy", "pg", "--seeds", "0"],
        ["simulate", "--gallery", "basic-tradeoff", "--policy", "pg", "--seeds", "-1"],
        ["sweep", "--gallery", "basic-tradeoff", "--policy", "patient",
         "--arrival", "uniform", "--seeds", "-1", "--out", "unused.csv"],
    ])
    def test_seed_counts_out_of_range_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seeds: must be at least" in captured.err
