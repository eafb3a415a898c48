"""Certificate work stays bounded by what a valid file can hold.

Loading expands each generator orbit once, so a file that lists every batch
of a column costs no more than one that lists its generators. A target
power beyond the certificate's batch size is refused before the target
cycle power is built.
"""

from deadline_matching import cli, extend_cover, masks, solve_cover_lp
from deadline_matching.cli import main
from deadline_matching.coverlp import certificate_from_json, certificate_to_json

N = 4000


def column_file(batches):
    """A one-column certificate on the lp 1 shape at n = N: d 1, period 4."""
    return {"n": N, "d": 1, "period": 4, "alpha": "1",
            "columns": [{"lambda": "1", "batches": [list(b) for b in batches]}]}


def test_a_file_listing_every_batch_loads_in_linear_time(monkeypatch):
    column = extend_cover(solve_cover_lp("lp", 1).certificate, N).columns[0][0]
    assert len(column.batches) == N // 2 and len(column.generator_batches()) == 2
    calls = []

    def counted(batch, r, n):
        calls.append(r)
        return rotate(batch, r, n)

    rotate = masks.rotate
    monkeypatch.setattr(masks, "rotate", counted)
    every = certificate_from_json(column_file(column.batches))
    assert len(calls) <= 2 * N
    generators = certificate_from_json(column_file(column.generator_batches()))
    assert every == generators
    assert every.columns[0][0] == column
    assert certificate_to_json(every) == certificate_to_json(generators)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_target_power_above_the_batch_size_is_refused_unbuilt(capsys, tmp_path,
                                                                 monkeypatch):
    base = tmp_path / "alpha1.json"
    assert run(capsys, "cover-lp", "--variant", "lp", "--d", "1", "--out", str(base))[0] == 0

    def unbuilt(n, d):
        raise AssertionError(f"built the target cycle:{n}:{d}")

    with monkeypatch.context() as patched:
        patched.setattr(cli, "cycle_power", unbuilt)
        code, out, err = run(capsys, "verify-cert", "--cert", str(base),
                             "--target", "cycle:8:3")
    assert (code, out) == (1, "")
    assert err == "error: target power 3 exceeds the batch size 2\n"
    # a power of exactly d + 1, which the lp-prime k = 2 certificate covers, still runs
    prime = tmp_path / "p2.json"
    assert run(capsys, "cover-lp", "--variant", "lp-prime", "--k", "2",
               "--out", str(prime))[0] == 0
    out_path = tmp_path / "ext.json"
    code, out, _ = run(capsys, "extend-cert", "--cert", str(prime), "--n", "16",
                       "--target", "cycle:16:2", "--out", str(out_path))
    assert code == 0 and "verified against n=16" in out and out_path.exists()
