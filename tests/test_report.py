"""How paper-report's run_all composes its passes."""

import json

from solvkit import report

CORE_CHECKS = ("check_theorem4_catalog", "check_winkelmann_table",
               "check_example6", "check_theorem9_pipeline",
               "check_obstruction_and_r", "check_round_trip",
               "check_lattice_search", "check_group_laws", "check_example3")


def test_run_all_makes_two_core_passes(monkeypatch):
    for t, name in enumerate(CORE_CHECKS):
        monkeypatch.setattr(report, name,
                            lambda t=t: report._ok("C%d" % (t + 1), {"n": t}))
    real_core = report._core_payload
    calls = []

    def counted(seconds):
        calls.append(seconds)
        return real_core(seconds)

    monkeypatch.setattr(report, "_core_payload", counted)
    seconds = {}
    verdicts = report.run_all(seconds)
    assert len(calls) == 2
    assert [v["check_id"] for v in verdicts] == \
        ["C%d" % t for t in range(1, 10)] + ["C10-determinism"]
    assert verdicts[9]["status"] == "pass"
    assert verdicts[9]["detail"]["bytes"] == \
        len(json.dumps(verdicts[:9], allow_nan=False))
    assert sorted(seconds) == sorted(v["check_id"] for v in verdicts)
