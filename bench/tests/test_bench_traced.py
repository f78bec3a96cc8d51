import json
from pathlib import Path

import generate
import workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    inputs = tmp_path / "inputs"
    generate.write_inputs(5, inputs)
    checker = workloads.Checker(None)
    metrics = workloads.run_traced(workloads.CliSession(inputs, checker), 0.1, tmp_path)
    named = [m["name"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]]
    assert sorted(metrics) == sorted(named)
    assert checker.failed == 0 and metrics["cli.unexpected_exit"][0] == 0
    for name in named:
        if name.endswith(("_s", "ns_per_call", "_per_s", ".calls")) and name != "cli.unexpected_exit":
            assert metrics[name][0] > 0, name
    assert list((tmp_path / "spans").glob("cli-session-cli-*.tsv"))
