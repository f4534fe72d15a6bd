"""Property checks on the program's outputs, computed apart from the program.

Each check recomputes a guarantee of the LT-VCG mechanism or of the
workload from the records the program archived or served, and raises
:class:`CheckError` when a record breaks it.  No check compares against a
stored copy of an earlier run's output.
"""

from __future__ import annotations

import math

#: Relative tolerance of the recomputed budget queue against the program's
#: reported backlog (they agree to about 1e-13 in practice).
QUEUE_TOLERANCE = 1e-9


class CheckError(Exception):
    """A program output breaks a property the benchmark checks."""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= QUEUE_TOLERANCE * max(1.0, abs(a), abs(b))


def budget_queue(rounds, budget: float) -> float:
    """Recompute ``Q(t+1) = max(Q(t) + P(t) - B, 0)`` from ``Q(0) = 0``.

    ``rounds`` yields ``(reported_backlog, payment)`` per round, where the
    reported backlog is the ``Q(t)`` the program decided round ``t`` with.
    Returns the recomputed ``Q(T)`` after the last round.
    """
    backlog = 0.0
    for index, (reported, payment) in enumerate(rounds):
        if not _close(reported, backlog):
            raise CheckError(
                f"round {index}: program reports budget backlog {reported!r}, "
                f"recomputed {backlog!r}"
            )
        backlog = max(backlog + payment - budget, 0.0)
    return backlog


def spend_certificate(payments, budget: float, final_backlog: float) -> None:
    """The Lyapunov spend bound: ``mean spend <= B + Q(T) / T``."""
    payments = list(payments)
    if not payments:
        raise CheckError("no rounds to certify")
    horizon = len(payments)
    mean = math.fsum(payments) / horizon
    bound = budget + final_backlog / horizon
    if mean > bound + QUEUE_TOLERANCE * max(1.0, bound):
        raise CheckError(
            f"mean spend {mean!r} exceeds B + Q(T)/T = {bound!r} over {horizon} rounds"
        )


def winners_paid(rounds, max_winners: int) -> None:
    """Every winner is paid at least its bid; no round exceeds the winner cap.

    ``rounds`` yields ``(bids, selected, payments)``: the round's bids as
    ``{client_id: cost}``, the selected ids, and ``{client_id: payment}``.
    """
    for index, (bids, selected, payments) in enumerate(rounds):
        if len(selected) > max_winners:
            raise CheckError(
                f"round {index} selects {len(selected)} winners, cap {max_winners}"
            )
        for client in selected:
            if client not in bids:
                raise CheckError(f"round {index}: winner {client} did not bid")
            paid = payments.get(client)
            if paid is None or paid < bids[client] - QUEUE_TOLERANCE:
                raise CheckError(
                    f"round {index}: winner {client} bid {bids[client]!r} "
                    f"but is paid {paid!r}"
                )


def fl_accuracy(accuracies, num_classes: int = 10, times_chance: float = 3.0) -> None:
    """Final test accuracy is several times chance and above the first one."""
    accuracies = [a for a in accuracies if a is not None]
    if len(accuracies) < 2:
        raise CheckError(f"need at least two evaluations, got {len(accuracies)}")
    first, final = accuracies[0], accuracies[-1]
    if final < times_chance / num_classes:
        raise CheckError(
            f"final accuracy {final!r} is below {times_chance} x chance "
            f"({times_chance / num_classes!r})"
        )
    if not final > first:
        raise CheckError(f"final accuracy {final!r} is not above the first {first!r}")


# -- whole records ---------------------------------------------------------------


def event_log(data: dict, *, budget: float, max_winners: int) -> dict:
    """Check one archived event log (``save_event_log`` JSON).

    Rounds must be numbered ``0..T-1``.  Every mechanism's winners are
    checked; the budget queue and the spend certificate are checked where
    the mechanism reports a budget backlog (LT-VCG).  Returns the counts
    ``{"rounds", "bids"}``.
    """
    rows = data["rounds"]
    indices = [row["round_index"] for row in rows]
    if indices != list(range(len(rows))):
        raise CheckError(f"round indices are not 0..{len(rows) - 1}")
    winners_paid(
        (
            ({int(k): v for k, v in row["bids"].items()},
             [int(c) for c in row["selected"]],
             {int(k): v for k, v in row["payments"].items()})
            for row in rows
        ),
        max_winners,
    )
    if rows and "budget_backlog" in rows[0]["diagnostics"]:
        # Winners whose upload failed are unpaid in ``payments``; the queue
        # saw the committed figure, which the record then carries.
        spend = [
            row["diagnostics"].get("committed_payment", math.fsum(row["payments"].values()))
            for row in rows
        ]
        final = budget_queue(
            ((row["diagnostics"]["budget_backlog"], paid) for row, paid in zip(rows, spend)),
            budget,
        )
        spend_certificate(spend, budget, final)
    return {"rounds": len(rows), "bids": sum(len(row["bids"]) for row in rows)}


def served_replies(replies, *, market: str, first_round: int, round_bids) -> None:
    """Each ``bids`` frame of the closed loop closed exactly its own round.

    ``replies[k]`` answers the frame carrying round ``first_round + k``,
    whose bid count is ``round_bids[k]``.
    """
    for offset, (reply, expected) in enumerate(zip(replies, round_bids)):
        round_index = first_round + offset
        if not reply.get("ok") or reply.get("market") != market:
            raise CheckError(f"{market} round {round_index}: error reply {reply!r:.200}")
        if reply.get("accepted") != expected or reply.get("rejected") != 0:
            raise CheckError(
                f"{market} round {round_index}: accepted {reply.get('accepted')!r} "
                f"of {expected} bids"
            )
        if reply.get("closed_rounds") != [round_index]:
            raise CheckError(
                f"{market}: frame of round {round_index} closed "
                f"{reply.get('closed_rounds')!r}"
            )
        if any(r.get("round_index") != round_index for r in reply["results"]):
            raise CheckError(f"{market}: bids of round {round_index} landed elsewhere")
    if len(replies) != len(round_bids):
        raise CheckError(f"{market}: {len(replies)} replies to {len(round_bids)} frames")


def served_outcomes(outcomes, sent, *, budget: float, max_winners: int) -> float:
    """Check a market's ``outcomes.jsonl`` against the bids the client sent.

    ``sent[t]`` is round ``t``'s bids as ``{client_id: cost}``.  Returns the
    recomputed budget backlog after the last round.
    """
    if [o["round_index"] for o in outcomes] != list(range(len(sent))):
        raise CheckError(f"outcome rounds are not 0..{len(sent) - 1}")
    winners_paid(
        (
            (bids, list(o["selected"]), {int(k): v for k, v in o["payments"].items()})
            for o, bids in zip(outcomes, sent)
        ),
        max_winners,
    )
    spend = [o["total_payment"] for o in outcomes]
    final = budget_queue(
        ((o["diagnostics"]["budget_backlog"], paid) for o, paid in zip(outcomes, spend)),
        budget,
    )
    spend_certificate(spend, budget, final)
    return final


def resumed(stats: dict, *, next_round_index: int, backlog: float) -> None:
    """A restarted market resumes at the last closed round and its backlog."""
    if stats.get("next_round_index") != next_round_index:
        raise CheckError(
            f"{stats.get('name')}: resumed at round {stats.get('next_round_index')!r}, "
            f"expected {next_round_index}"
        )
    reported = stats.get("budget_backlog")
    if reported is None or not _close(float(reported), backlog):
        raise CheckError(
            f"{stats.get('name')}: resumed with budget backlog {reported!r}, "
            f"expected {backlog!r}"
        )
