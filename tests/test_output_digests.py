"""tools/output_digests.py: the per-invocation digests two trees are compared by."""

import importlib.util
from dataclasses import replace
from pathlib import Path

from gmsim import parse_config

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_digests",
                                               ROOT / "tools" / "output_digests.py")
output_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digests)


def test_invocations_cover_every_subcommand_per_thread_count():
    cmds = list(output_digests.invocations(["a.cfg"], [3], [1, 2]))
    assert len(cmds) == 1 + 2 * 7
    assert cmds[0] == ["check-potential", "--config", "a.cfg"]
    assert {c[0] for c in cmds} == {"check-potential", "simulate",
                                    *output_digests.EXPERIMENTS}
    assert ["simulate", "--config", "a.cfg", "--seed", "3", "--threads", "2",
            "--positions"] in cmds


def test_seed_list_runs_every_seed_and_checks_each_config_once(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(output_digests, "digest",
                        lambda tree, argv: (seen.append(argv) or 0, [" ".join(argv)]))
    assert output_digests.main(["--tree", str(ROOT), "--seed", "3,11", "--threads", "1,2"]) == 0
    n_configs = len(list((ROOT / "configs").glob("*.cfg")))
    assert sum(a[0] == "check-potential" for a in seen) == n_configs
    runs = [(a[a.index("--seed") + 1], a[a.index("--threads") + 1])
            for a in seen if a[0] != "check-potential"]
    # 7 per config, seed and thread count, plus simulate --positions on the
    # d = 2 and the n = 5 copies of simulate_small.cfg
    assert len(runs) == n_configs * 4 * 7 + 8
    assert set(runs) == {("3", "1"), ("3", "2"), ("11", "1"), ("11", "2")}
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"# {n_configs * 29 + 8} invocations; exit 0: {n_configs * 29 + 8}")


def test_simulate_positions_also_runs_on_a_d2_copy_of_the_quartic_smoke_config():
    name = "configs/simulate_small.d2.cfg"
    assert not (ROOT / name).exists()
    cmds = list(output_digests.invocations(["configs/simulate_small.cfg"], [3], [1, 2]))
    assert len(cmds) == 1 + 2 * 7 + 2 * 2
    assert cmds[-4:-2] == [["simulate", "--config", name, "--seed", "3", "--threads", t,
                            "--positions"] for t in ("1", "2")]
    assert name not in (c[2] for c in output_digests.invocations(["a.cfg"], [3], [1]))
    # the copy differs only in dim, and its quartic W takes the moment path
    cfg = parse_config(output_digests.config_text(ROOT, name))
    shipped = parse_config((ROOT / "configs/simulate_small.cfg").read_text())
    assert (cfg.dim, shipped.dim) == (2, 1)
    assert replace(cfg, dim=1) == shipped
    assert cfg.potential_W.kind == "power_law" and not cfg.potential_W.sums_pairs
    code, lines = output_digests.digest(ROOT, cmds[-3])
    assert code == 0 and lines[0] == " ".join(cmds[-3]) + ": exit 0"
    files = [line.split()[0] for line in lines[3:]]
    assert {f.rsplit(".", 1)[1] for f in files} == {"csv", "jsonl", "bin"}


def test_simulate_positions_also_runs_on_an_n5_copy_whose_blocks_end_in_a_partial_one():
    # n d = 5 values per (step, run) block: one whole Philox block of four
    # words and one word of a second
    name = "configs/simulate_small.n5.cfg"
    assert not (ROOT / name).exists()
    cmds = list(output_digests.invocations(["configs/simulate_small.cfg"], [3], [1, 2]))
    assert cmds[-2:] == [["simulate", "--config", name, "--seed", "3", "--threads", t,
                          "--positions"] for t in ("1", "2")]
    cfg = parse_config(output_digests.config_text(ROOT, name))
    shipped = parse_config((ROOT / "configs/simulate_small.cfg").read_text())
    assert (cfg.n * cfg.dim, shipped.n) == (5, 16)
    assert replace(cfg, n=16) == shipped
    code, lines = output_digests.digest(ROOT, cmds[-1])
    assert code == 0 and lines[0] == " ".join(cmds[-1]) + ": exit 0"
    files = [line.split()[0] for line in lines[3:]]
    assert {f.rsplit(".", 1)[1] for f in files} == {"csv", "jsonl", "bin"}


def test_digest_does_not_depend_on_the_output_directory():
    # simulate prints its output path; each run writes into its own directory
    argv = ["simulate", "--config", "configs/simulate_small.cfg", "--seed", "3"]
    first, second = (output_digests.digest(ROOT, argv) for _ in range(2))
    assert first == second
    code, lines = first
    assert code == 0 and lines[0] == " ".join(argv) + ": exit 0"
    assert any(line.startswith("  simulate-") for line in lines[3:])


def test_with_all_formats_sets_only_the_output_formats():
    text = "[dynamics]\nformats = kept\n\n[output]\ndir = out\nformats = csv\n"
    assert output_digests.with_all_formats(text) == (
        "[dynamics]\nformats = kept\n\n[output]\nformats = csv,jsonl,bin\ndir = out\n")
    assert output_digests.with_all_formats("[dynamics]\nn = 4\n") == (
        "[dynamics]\nn = 4\n[output]\nformats = csv,jsonl,bin\n")


def test_simulate_digests_jsonl_and_bin_of_a_config_that_writes_only_csv():
    cfg = "configs/bump3d_decay.cfg"
    assert "formats" not in (ROOT / cfg).read_text()
    argv = ["simulate", "--config", cfg, "--seed", "3", "--positions"]
    code, lines = output_digests.digest(ROOT, argv)
    assert code == 0 and lines[0] == " ".join(argv) + ": exit 0"
    files = [line.split()[0] for line in lines[3:]]
    assert {f.rsplit(".", 1)[1] for f in files} == {"csv", "jsonl", "bin"}
    assert sum(f.endswith(".bin") for f in files) == 8  # one per run
