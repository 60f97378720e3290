"""``python -m repro.dst``: pinned sweep output, flag validation, and the
sweep loop's handling of a harness that raises."""

from __future__ import annotations

import argparse
import hashlib

import pytest

from repro.dst.__main__ import main
from repro.dst.harness import DstRun
from repro.dst.scenarios import SCENARIOS
from repro.faults import FaultSchedule

pytestmark = pytest.mark.dst


def _run(capsys, *argv):
    rc = main([*argv, "--jobs", "1"])
    return rc, capsys.readouterr().out


#: Stdout md5s of CI's sweep commands (identical for any --jobs value).
GOLDEN = [
    (("--seeds", "0:12", "--log"), "61fb5f1e3583d20286e4120d6f698db5"),
    (("--storm", "--seeds", "0:20", "--selfcheck"), "a9bc5694028aea091a8c7c0c37b9cb94"),
    (("--storm", "--storm-kind", "space", "--seeds", "0:8"), "cba9edecdf3f5445bd5a1682e41cc99f"),
    (("--cluster", "--seeds", "0:20", "--selfcheck"), "9720330540c4f39b664468e0002e99d4"),
    (("--serving", "--seeds", "0:20", "--selfcheck"), "c6b855d4a4f85d25af9e49ef221f310d"),
    (("--cluster", "--nodes", "5", "--seed", "3", "--log"), "743074779aa7b40a14e0079864f9058f"),
]


@pytest.mark.parametrize("argv,md5", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_sweep_output_is_pinned(capsys, argv, md5):
    rc, out = _run(capsys, *argv)
    assert rc == 0, out
    assert hashlib.md5(out.encode("utf-8")).hexdigest() == md5, out


@pytest.mark.parametrize("mode", [(), ("--storm",), ("--cluster",), ("--serving",)])
def test_save_then_replay_reproduces_the_seed(capsys, tmp_path, mode):
    path = str(tmp_path / "schedule.json")
    rc, saved = _run(capsys, *mode, "--seed", "1", "--save", path, "--log")
    assert rc == 0, saved
    with open(path, encoding="utf-8") as fh:
        schedule = fh.read()
    rc, replayed = _run(capsys, *mode, "--seed", "1", "--replay", path, "--log")
    assert rc == 0, replayed
    assert replayed == saved.replace(f"  schedule saved to {path}\n", "")
    rc, _ = _run(capsys, *mode, "--seed", "1", "--replay", path, "--save", path)
    with open(path, encoding="utf-8") as fh:
        assert fh.read() == schedule


@pytest.mark.parametrize(
    "argv,header",
    [
        (("--cluster", "--ops", "300", "--keys", "40"), "nodes=3 ops=300 keys=40"),
        (("--storm", "--ops", "300", "--keys", "40"), "ops=300 keys=40"),
        (("--ops", "120", "--keys", "12"), "ops=120 keys=12"),
    ],
)
def test_explicit_sizes_reach_the_harness(capsys, argv, header):
    """A flag equal to another mode's default is still honoured."""
    rc, out = _run(capsys, *argv, "--seed", "0", "--log")
    assert header in out.splitlines()[1], out.splitlines()[1]


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("--serving", "--ops", "5"), "--ops"),
        (("--nodes", "5"), "--nodes"),
        (("--storm", "--shards", "2"), "--shards"),
        (("--cluster", "--replicas", "3"), "--replicas"),
        (("--serving", "--max-faults", "5"), "--max-faults"),
        (("--storm", "--no-faults"), "--no-faults"),
        (("--cluster", "--storm-kind", "auto"), "--storm-kind"),
    ],
)
def test_flags_the_mode_does_not_use_are_rejected(argv, flag):
    with pytest.raises(SystemExit, match=f"^{flag} is not used in "):
        main([*argv, "--seed", "0"])


@pytest.mark.parametrize("mode", list(SCENARIOS))
def test_every_declared_flag_reaches_the_config(tmp_path, mode):
    """Each flag an entry declares names a real config field and moves
    the built config away from the unset-flags default."""
    path = tmp_path / "schedule.json"
    path.write_text(FaultSchedule().to_json())
    values = {
        "ops": 123, "keys": 17, "no_faults": True, "max_faults": 2,
        "replay": str(path), "storm_kind": "io", "nodes": 5, "shards": 3,
        "replicas": 4,
    }
    scenario = SCENARIOS[mode]
    unset = dict.fromkeys(scenario.flags)

    def config(**given):
        args = argparse.Namespace(**{**unset, **given})
        return scenario.config_cls(**scenario.from_args(args))

    base = config()
    for flag in scenario.flags:
        assert config(**{flag: values[flag]}) != base, flag


def test_modes_are_mutually_exclusive():
    with pytest.raises(SystemExit):
        main(["--storm", "--cluster"])


def test_a_raising_harness_fails_its_seed_not_the_sweep(capsys, monkeypatch):
    real_run = DstRun.run

    def run(self):
        if self.seed == 1:
            raise RuntimeError("boom")
        return real_run(self)

    monkeypatch.setattr(DstRun, "run", run)
    rc, out = _run(capsys, "--seeds", "0:3", "--ops", "80", "--log")
    assert rc == 1
    lines = out.splitlines()
    i = lines.index("seed=1 EXCEPTION(RuntimeError: boom)")
    assert lines[i + 1] == "  Traceback (most recent call last):"
    assert "  repro: python -m repro.dst --seed 1 --ops 80" in lines
    assert any(line.startswith("seed=2 PASS") for line in lines[i:])
