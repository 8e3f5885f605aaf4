"""Per-user cost allocation ("how much does the user have to pay?").

The paper's introduction singles out pricing -- "Development of optimal
pricing model, how much user has to pay for the service?, suddenly draws
wide attention" -- and its cost model prices the *schedule*; this module
closes the loop by allocating schedule cost to the users it serves:

* each delivery's network cost is billed to the user it serves;
* each residency's storage cost is split **evenly among the services taken
  from that cache** (its ``service_list``) -- the users who actually caused
  the file to stay resident;
* a residency nobody consumed (committed carryover, pruned candidates)
  falls into an ``overhead`` bucket the operator absorbs or amortizes.

The same pass bills each delivered request, which the admission gateway
reconciles its quotes against: a user's residency share splits evenly
across that user's delivered requests of the video.

The allocation is *exact*: the sum of all invoices plus the overhead bucket
equals Ψ(S) to floating-point accuracy, which the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.costmodel import CostModel
from repro.core.schedule import Schedule
from repro.errors import ScheduleError
from repro.workload.requests import Request


@dataclass
class Invoice:
    """One user's bill for a scheduling cycle."""

    user_id: str
    network: float = 0.0
    storage: float = 0.0
    services: int = 0

    @property
    def total(self) -> float:
        return self.network + self.storage


@dataclass
class BillingStatement:
    """All invoices for one schedule, plus the unallocated overhead."""

    invoices: dict[str, Invoice] = field(default_factory=dict)
    overhead: float = 0.0  # storage cost with no consuming service
    #: Billed Ψ per delivered request; overhead is not attributed.
    requests: dict[Request, float] = field(default_factory=dict)

    @property
    def billed_total(self) -> float:
        return sum(inv.total for inv in self.invoices.values())

    @property
    def grand_total(self) -> float:
        """Billed total + operator-absorbed overhead == Ψ(S)."""
        return self.billed_total + self.overhead

    def invoice(self, user_id: str) -> Invoice:
        try:
            return self.invoices[user_id]
        except KeyError:
            raise ScheduleError(f"no invoice for user {user_id!r}") from None

    def top_payers(self, n: int = 5) -> list[Invoice]:
        return sorted(
            self.invoices.values(), key=lambda i: i.total, reverse=True
        )[:n]


def allocate_costs(schedule: Schedule, cost_model: CostModel) -> BillingStatement:
    """Allocate Ψ(S) to the users the schedule serves.

    Returns a :class:`BillingStatement` whose ``grand_total`` equals
    ``cost_model.total(schedule)``.
    """
    statement = BillingStatement()

    def inv(user_id: str) -> Invoice:
        existing = statement.invoices.get(user_id)
        if existing is None:
            existing = Invoice(user_id)
            statement.invoices[user_id] = existing
        return existing

    requests = statement.requests
    for fs in schedule:
        by_user: dict[str, list[Request]] = {}
        for d in fs.deliveries:
            cost = cost_model.delivery_cost(d)
            invoice = inv(d.request.user_id)
            invoice.network += cost
            invoice.services += 1
            requests[d.request] = requests.get(d.request, 0.0) + cost
            by_user.setdefault(d.request.user_id, []).append(d.request)
        for c in fs.residencies:
            cost = cost_model.residency_cost(c)
            if not c.service_list:
                statement.overhead += cost
                continue
            share = cost / len(c.service_list)
            for user_id in c.service_list:
                inv(user_id).storage += share
                served = by_user.get(user_id)
                if served:
                    per_request = share / len(served)
                    for request in served:
                        requests[request] += per_request
    return statement
