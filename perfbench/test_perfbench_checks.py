"""The benchmark's property checks accept the program's real output and
reject each kind of deliberately corrupted record; the span summary counts
nested calls once."""

import copy
import json

import numpy as np
import pytest

import checks
import spans


@pytest.fixture(scope="module")
def lt_vcg_log(tmp_path_factory):
    from repro.cli import run_experiment
    from repro.config import ExperimentConfig

    out = tmp_path_factory.mktemp("run")
    config = ExperimentConfig(
        num_clients=12, num_rounds=40, max_winners=4, budget_per_round=1.0,
        participation_target=0.1, extras={"mechanism": "lt-vcg"},
    )
    run_experiment(config, out)
    return json.loads((out / "event_log.json").read_text()), config


@pytest.fixture(scope="module")
def served_market():
    from repro.config import ExperimentConfig
    from repro.service.market import Market, MarketConfig

    market = Market(
        MarketConfig(
            "m",
            ExperimentConfig(num_clients=8, max_winners=3, budget_per_round=1.0,
                             participation_target=0.1, extras={"mechanism": "lt-vcg"}),
        ),
        None,
    )
    sent, outcomes = [], []
    rng = np.random.default_rng(0)
    for _ in range(30):
        bids = {cid: float(rng.uniform(0.1, 0.8)) for cid in range(8)}
        for cid, cost in bids.items():
            market.submit_bid({"client_id": cid, "cost": cost, "value": 1.0 + cid / 8})
        outcomes.append(json.loads(json.dumps(market.close_round(trigger="flush"))))
        sent.append(bids)
    return outcomes, sent, market.stats()


def test_event_log_accepts_program_output(lt_vcg_log):
    log, config = lt_vcg_log
    counts = checks.event_log(log, budget=config.budget_per_round, max_winners=config.max_winners)
    assert counts == {"rounds": 40, "bids": sum(len(r["bids"]) for r in log["rounds"])}
    assert any(r["diagnostics"]["budget_backlog"] > 0 for r in log["rounds"])


def test_budget_queue_rejects_a_corrupted_backlog(lt_vcg_log):
    log, config = lt_vcg_log
    bad = copy.deepcopy(log)
    bad["rounds"][17]["diagnostics"]["budget_backlog"] += 1e-6
    with pytest.raises(checks.CheckError, match="round 17"):
        checks.event_log(bad, budget=config.budget_per_round, max_winners=config.max_winners)


def test_winner_paid_below_bid_is_rejected(lt_vcg_log):
    log, config = lt_vcg_log
    bad = copy.deepcopy(log)
    row = next(r for r in bad["rounds"] if r["selected"])
    winner = str(row["selected"][0])
    row["payments"][winner] = row["bids"][winner] * 0.5
    with pytest.raises(checks.CheckError, match="is paid"):
        checks.winners_paid(
            [({int(k): v for k, v in row["bids"].items()}, row["selected"],
              {int(k): v for k, v in row["payments"].items()})],
            config.max_winners,
        )


def test_round_over_the_winner_cap_is_rejected(lt_vcg_log):
    log, config = lt_vcg_log
    bad = copy.deepcopy(log)
    row = next(r for r in bad["rounds"] if len(r["selected"]) == config.max_winners)
    extra = next(int(c) for c in row["bids"] if int(c) not in row["selected"])
    row["selected"].append(extra)
    row["payments"][str(extra)] = row["bids"][str(extra)]
    with pytest.raises(checks.CheckError, match="winners, cap"):
        checks.event_log(bad, budget=config.budget_per_round, max_winners=config.max_winners)


def test_spend_certificate_rejects_an_understated_backlog():
    checks.spend_certificate([6.0, 6.0, 6.0], 5.0, final_backlog=3.0)
    with pytest.raises(checks.CheckError, match="mean spend"):
        checks.spend_certificate([6.0, 6.0, 6.0], 5.0, final_backlog=2.0)


def test_fl_accuracy_rejects_chance_level_and_no_progress():
    checks.fl_accuracy([0.13, None, 0.45, 0.71])
    with pytest.raises(checks.CheckError, match="chance"):
        checks.fl_accuracy([0.10, 0.25])
    with pytest.raises(checks.CheckError, match="not above"):
        checks.fl_accuracy([0.60, 0.55])


def test_served_outcomes_accept_a_real_market_and_reject_corruption(served_market):
    outcomes, sent, stats = served_market
    backlog = checks.served_outcomes(outcomes, sent, budget=1.0, max_winners=3)
    checks.resumed(stats, next_round_index=30, backlog=backlog)

    bad = copy.deepcopy(outcomes)
    bad[9]["diagnostics"]["budget_backlog"] *= 1.5
    bad[9]["diagnostics"]["budget_backlog"] += 0.1
    with pytest.raises(checks.CheckError, match="round 9"):
        checks.served_outcomes(bad, sent, budget=1.0, max_winners=3)
    bad = copy.deepcopy(outcomes)
    winner = bad[4]["selected"][0]
    bad[4]["payments"][str(winner)] = sent[4][winner] / 2
    with pytest.raises(checks.CheckError, match="is paid"):
        checks.served_outcomes(bad, sent, budget=1.0, max_winners=3)


def test_restart_at_the_wrong_round_or_backlog_is_rejected(served_market):
    outcomes, sent, stats = served_market
    backlog = checks.served_outcomes(outcomes, sent, budget=1.0, max_winners=3)
    with pytest.raises(checks.CheckError, match="resumed at round"):
        checks.resumed(stats, next_round_index=29, backlog=backlog)
    with pytest.raises(checks.CheckError, match="budget backlog"):
        checks.resumed(stats, next_round_index=30, backlog=backlog + 0.25)


def test_each_frame_must_close_its_own_round():
    def reply(round_index, closed):
        return {"ok": True, "market": "m", "accepted": 2, "rejected": 0,
                "closed_rounds": closed,
                "results": [{"ok": True, "round_index": round_index}] * 2}

    checks.served_replies([reply(0, [0]), reply(1, [1])], market="m", first_round=0,
                          round_bids=[2, 2])
    with pytest.raises(checks.CheckError, match="closed"):
        checks.served_replies([reply(0, [0]), reply(1, [])], market="m", first_round=0,
                              round_bids=[2, 2])
    with pytest.raises(checks.CheckError, match="landed elsewhere"):
        checks.served_replies([reply(0, [0]), reply(0, [1])], market="m", first_round=0,
                              round_bids=[2, 2])


def test_summarize_counts_nested_spans_once():
    decide = spans.LAYERS.index("mechanisms.decide")
    run = spans.LAYERS.index("simulation.run")
    # run [0, 10] holds a batched decide [1, 5] of 4 rounds, which holds a
    # nested decide [2, 3]; a second decide [6, 8] of one round.
    array = np.array([
        (run, 0.0, 10.0, -1, 5),
        (decide, 1.0, 5.0, 0, 4),
        (decide, 2.0, 3.0, 1, 1),
        (decide, 6.0, 8.0, 0, 1),
    ])
    summary = spans.summarize([array])
    assert summary["busy"]["mechanisms.decide"] == 6.0
    assert summary["count"]["mechanisms.decide"] == 5
    assert summary["self"]["simulation.run"] == 4.0
    assert summary["self"]["mechanisms.decide"] == 6.0
    assert summary["top"]["simulation.run"] == 10.0
    assert sorted(summary["decide_ms"].tolist()) == [1000.0] * 4 + [2000.0]
