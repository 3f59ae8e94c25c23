"""Pinned sha256 digests of CLI artifacts: a refactor must leave every byte unchanged.

The digests were recorded from the outputs of the code before the config,
artifact and feature-map layers were folded into single declarations; a
changed digest means a report, CSV, dataset, sweep or demo line changed.
"""

import hashlib
import math

import pytest

from groversvm import cli

RUN_ARGS = [
    "run", "--seed", "3", "--set", "domain_size=64", "--set", "train_size=8",
    "--set", "shots=256", "--set", "test_size=40", "--trials", "3",
]

DEMO_TEXTS = "10110010\n01011000\n1101\n00000000\n11011011\n0110100111000101\n"


def sha(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def run_cli(capsys, argv, out_path, expected_code=cli.EXIT_OK) -> str:
    assert cli.main(argv + ["--out", str(out_path)]) == expected_code
    stdout = capsys.readouterr().out
    content = out_path.read_text(encoding="utf-8")
    assert stdout == content
    return content


RUN_DIGESTS = {
    "quantum_kernel": (
        "79676ab7d9bc9cda10127b956512551fae3f1fe99bfb237e64b49b1940911fd8",
        "43cd1636d0c5222ff0b0de0711cc8b9ad3f0c4a80932d24da9f053c8090bd4ae",
    ),
    "preprocessing": (
        "db7bf9c5e363285c59f154d975a5bda7326b70acfa83c6de64761671755f35d4",
        "4aaa2f25ef425087d9be0189b987e80651396967bebd10182a883c82e9b9915b",
    ),
    "classical": (
        "e2c5892d6a9966fbb63a4738e9e5d0767c188818518ebf2817d7e16423cb0a35",
        "39e808764d0869a0975e419caec2adc7959f03c06394936866c2e61d62196718",
    ),
}


@pytest.mark.parametrize("learner", sorted(RUN_DIGESTS))
def test_run_report_and_csv(tmp_path, capsys, learner):
    out = tmp_path / "run.rpt"
    report = run_cli(capsys, RUN_ARGS + ["--learner", learner], out)
    csv = (tmp_path / "run.rpt.csv").read_text(encoding="utf-8")
    assert (sha(report), sha(csv)) == RUN_DIGESTS[learner]


GEN_DATA = {
    "indicator": (
        ["--set", "domain_size=64", "--set", "train_size=12"],
        "7ff79547393d501d505ddfbe573b23e686f79e63898153bacf0db82d4bcf895f",
    ),
    "pattern": (
        ["--set", "problem=pattern", "--set", "domain_size=16", "--set", "train_size=6",
         "--set", "pattern=101"],
        "da5738438cd5057360cc3c4278503243a4da75083f929ecb3e22ad45ff0044bd",
    ),
}


@pytest.mark.parametrize("problem", sorted(GEN_DATA))
def test_gen_data(tmp_path, capsys, problem):
    extra, digest = GEN_DATA[problem]
    content = run_cli(capsys, ["gen-data", "--seed", "9"] + extra, tmp_path / "data.txt")
    assert sha(content) == digest


def test_sweep(tmp_path, capsys):
    argv = ["sweep", "--seed", "5", "--domain-sizes", "16,32,64,128,256", "--trials", "2"]
    content = run_cli(capsys, argv, tmp_path / "sweep.csv")
    assert sha(content) == (
        "468ef002c9232c8036e413d5df44659b5413ecf3bf23a62d72a939a8e861b7e4"
    )


DEMO_DIGESTS = {
    "faithful": "53f2a55f7997125e73718c237151cf8d386abd8a8c8831516d238e8aae6e06cf",
    "ideal": "048715e5897f9d6a5330c486cfba0c48b7b352ebed3646c9ff6df5481184f361",
}


@pytest.mark.parametrize("backend", sorted(DEMO_DIGESTS))
def test_pattern_demo(tmp_path, capsys, backend):
    # Every text has a power-of-two length; the last three have no unique occurrence.
    texts = tmp_path / "texts.txt"
    texts.write_text(DEMO_TEXTS, encoding="utf-8")
    argv = ["pattern-demo", str(texts), "--pattern", "110", "--backend", backend, "--seed", "4"]
    content = run_cli(capsys, argv, tmp_path / "demo.txt", cli.EXIT_DOMAIN)
    assert sha(content) == DEMO_DIGESTS[backend]


def test_resource_cap_record_formatting():
    # A real cap needs N = 2**25; a synthetic record exercises the same rows.
    resolved = cli.resolve_config(cli.ExperimentConfig(seed=5, domain_size=64, train_size=8))
    records = [
        {"trial": 0, "status": "ok", "accuracy": 0.975, "support_count": 4,
         "oracle_queries": 1200, "shots": 64, "classical_evaluations": 0},
        {"trial": 1, "status": "resource_cap:25 qubits exceeds the dense cap of 24",
         "accuracy": math.nan},
    ]
    report = cli.format_run_report(resolved, records)
    csv = cli.format_run_csv(records)
    assert (sha(report), sha(csv)) == (
        "2403b8f8900071408c43f2cd43554678a3f49b31d19db4dd7bbc3d1a348053fa",
        "1531c21287d849cabdf437d452973794d3030ebd38673ea385bb5776702636ec",
    )
