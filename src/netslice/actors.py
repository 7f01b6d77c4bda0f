"""Deterministic in-process simulation of the provisioning protocol.

Aggregate managers delegate substrate abstractions to a broker; a
controller validates incoming slice requests, embeds them against the
broker's view, obtains tickets, and redeems them at the owning AMs, which
re-validate against their detailed substrates before allocating. Leases
expire on a virtual clock.

Delegations, requests and manifests cross between actors as serialized
documents; tickets and the AMs' redeem answers are in-process records. A
single-threaded driver assigns every event a global sequence number, so a
scenario replays byte-identically.
"""

from __future__ import annotations

import itertools
from datetime import datetime, timezone
from typing import Optional

from . import embed as embed_mod
from . import rules as rules_mod
from .embed import (
    DomainState,
    EmbeddingFailed,
    EmbeddingPlan,
    InsufficientResources,
    OverAllocation,
    border_ops,
    expand_domain_hop,
    path_ops,
    prepare_domain,
)
from .graphstore import (
    ClosureBudgetExceeded,
    Iri,
    Model,
    ParseError,
    Record,
    _SCHEMA_RELATIONS,
    entail,
    merge,
    parse_document,
    serialize_document,
)
from .models import (
    SliceRequest,
    SubstrateError,
    Term,
    build_delegation,
    build_manifest,
    check_homeomorphic,
    parse_delegation,
    parse_request,
    render_datetime,
    residual_of,
    slice_base,
)
from .vocab import RESERVATION, close, entailed_schema, read_closed, satisfies, validate_conformance


class UnknownSlice(Exception):
    pass


class RedeemError(Exception):
    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind  # expired | over-delegated | infeasible-detail
        super().__init__(f"{kind}: {detail}" if detail else kind)


class SliceError(Record, Exception):
    __slots__ = ("step", "detail", "violations", "issues")

    def __init__(self, step: str, detail: str, violations=None, issues=None):
        self.step, self.detail = step, detail  # Validation | Binding | Embedding | Ticketing | Redeem
        self.violations = [] if violations is None else violations
        self.issues = [] if issues is None else issues

    def __str__(self) -> str:
        return f"{self.step}: {self.detail}"


def _drop_frames(error: BaseException) -> None:
    """Clear the tracebacks along a handled error's cause and context chain:
    a slice record keeps its failure, and the frames would hold the World."""
    pending = [error]
    while pending:
        e = pending.pop()
        if e is not None and e.__traceback__ is not None:
            e.__traceback__ = None
            pending += (e.__cause__, e.__context__)


class VirtualClock:
    def __init__(self, now: Optional[datetime] = None):
        self.now = now or datetime(2026, 1, 1, tzinfo=timezone.utc)

    def advance(self, to: datetime) -> None:
        if to < self.now:
            raise ValueError("virtual clock cannot move backwards")
        self.now = to


class Ticket(Record):
    __slots__ = ("ticket_id", "slice_id", "domain", "placements", "border_allocs", "segments", "term")

    def __init__(self, ticket_id, slice_id, domain, placements, border_allocs, segments, term):
        self.ticket_id, self.slice_id, self.domain, self.term = ticket_id, slice_id, domain, term
        self.placements = placements  # (request node, requested compute class)
        self.border_allocs = border_allocs  # (iface, bandwidth, label or None)
        # (branch key, hop index, route PathHop, its label, from_node, to_node, layer, bandwidth)
        self.segments = segments


class SliceRecord(Record):
    __slots__ = ("slice_id", "state", "tickets", "failure")

    def __init__(self, slice_id: str):
        # Requested while its create runs, then Provisioned or Closed
        self.slice_id, self.state, self.failure = slice_id, "Requested", None
        self.tickets = []  # the Tickets held until the slice closes


class AggregateManager:
    """Represents one resource provider; owns the detailed substrate."""

    def __init__(self, am_id: str, substrate_text: str, base: Model):
        self.am_id = am_id
        self.state: DomainState = prepare_domain(substrate_text, base)
        self.domain = self.state.substrate.domain
        self.leases: dict[str, tuple] = {}  # slice id -> (lease id, term end)
        self._lease_counter = 0

    def delegate(self) -> str:
        """Serialized delegation of the current residual substrate."""
        return serialize_document(build_delegation(self.state.substrate, self.state.free))

    def _host_candidates(self, requested_class: Iri) -> list:
        """Pools able to provision the class with a unit free now, first-fit
        order. Subclass checks use the substrate's own model so provider
        extensions count."""
        return [
            (pool.node, pool.provides)
            for pool in self.state.substrate.pools
            if self.state.free.get(("units", pool.node), 0) >= 1
            and satisfies(self.state.model, pool.provides, requested_class)
        ]

    def redeem(self, ticket: Ticket, clock: VirtualClock):
        """Re-validate the ticket against the detailed substrate, reserve
        its resources, and return provisioned details. Raises RedeemError.

        Host selection is the AM's own call: if the first-fit host cannot
        reach the required borders (labels fragmented by earlier slices),
        other host combinations are tried before the ticket is refused.
        """
        if ticket.term.end <= clock.now:
            raise RedeemError("expired", f"ticket {ticket.ticket_id} term has ended")
        token = f"slice:{ticket.slice_id}"
        nodes = [n for n, _ in sorted(ticket.placements, key=lambda p: p[0].value)]
        classes = {n: cls for n, cls in ticket.placements}
        candidates = {n: self._host_candidates(classes[n]) for n in nodes}
        for n in nodes:
            if not candidates[n]:
                raise RedeemError(
                    "over-delegated", f"no {classes[n].local()} units left in {self.am_id}"
                )

        combos = itertools.product(*(candidates[n] for n in nodes))  # one empty combo for no nodes
        failure: Exception = RedeemError("infeasible-detail", "no host combination works")
        for combo in itertools.islice(combos, 32):
            try:
                placements, paths = self._try_redeem(ticket, token, nodes, combo)
            except OverAllocation as e:
                failure = RedeemError("over-delegated", str(e))
                continue
            except EmbeddingFailed as e:
                failure = RedeemError("infeasible-detail", str(e))
                continue
            self._lease_counter += 1
            lease_id = f"{self.am_id}/lease/{self._lease_counter}"
            self.leases[ticket.slice_id] = (lease_id, ticket.term.end)
            return placements, paths
        raise failure

    def _try_redeem(self, ticket: Ticket, token: str, nodes, combo):
        host_of = {node: host for node, (host, _) in zip(nodes, combo)}
        paths = {}
        try:
            self.state.apply_ops(token, [("units", host, 1) for host, _ in combo])
            for iface, bandwidth, label in ticket.border_allocs:
                self.state.apply_ops(token, border_ops(iface, bandwidth, label))
            for branch_key, index, hop, label, from_node, to_node, layer, bw in ticket.segments:
                from_dev = host_of[from_node] if from_node is not None else None
                to_dev = host_of[to_node] if to_node is not None else None
                path = expand_domain_hop(
                    self.state, hop, label, layer, bw, from_dev, to_dev, link=branch_key[0]
                )
                if path.segments:
                    self.state.apply_ops(token, path_ops(path))
                paths[(branch_key, index)] = path
        except (OverAllocation, EmbeddingFailed, KeyError):
            if self.state.has_token(token):
                self.state.release_token(token)
            raise
        # addresses are handed out only once a combination sticks, so failed
        # attempts do not burn address space
        placements = {
            node: (host, concrete, self.state.next_address())
            for node, (host, concrete) in zip(nodes, combo)
        }
        return placements, paths

    def release_slice(self, slice_id: str) -> None:
        token = f"slice:{slice_id}"
        if self.state.has_token(token):
            self.state.release_token(token)
        self.leases.pop(slice_id, None)

    def expired_leases(self, now: datetime) -> list:
        """The ids of the slices whose lease term has ended, in lease-id
        text order."""
        ended = sorted((lease_id, s) for s, (lease_id, end) in self.leases.items() if end <= now)
        return [s for _, s in ended]

    def serialized_state(self) -> str:
        return serialize_document(self.state.snapshot())


def _require_figures(figures: dict, ops) -> None:
    """Raise OverAllocation for the first op on a figure a delegation does
    not state."""
    for kind, subject, _ in ops:
        if (kind, subject) not in figures:
            raise OverAllocation(f"{subject.value}: no {kind} figure delegated")


class Broker:
    """Coordinates allocations across providers by ticketing delegations."""

    broker_id = "broker"

    def __init__(self):
        self.ledgers: dict[Iri, DomainState] = {}  # delegation residual, by domain
        self.free: dict = {}  # every ledger's free figures; the ledgers write through to it
        self._ticket_counter = 0
        self._routing = None  # the routing view, built at the first read after a registration

    def register_delegation(self, text: str) -> Iri:
        """Register (or replace) a domain's delegation. A replacement takes
        over the outstanding tickets' ops. A SubstrateError refuses a
        malformed delegation, a replacement that cannot hold those ops or
        drops a figure one draws on, and a figure another domain delegates."""
        closed = read_closed(text)
        residual = residual_of(closed)
        domain = parse_delegation(closed)
        ledger = DomainState(None, closed, residual)
        prior = self.ledgers.get(domain)
        held = prior.original if prior is not None else {}
        key = next((k for k in residual if k in self.free and k not in held), None)
        if key is not None:
            raise SubstrateError([f"{key[1].value} {key[0]} figure delegated by another domain"])
        outstanding = prior.active if prior is not None else {}
        for token in sorted(outstanding):
            try:
                _require_figures(residual, outstanding[token])
                ledger.apply_ops(token, outstanding[token])
            except OverAllocation as e:
                raise SubstrateError(
                    [f"{domain.value}: re-delegation below outstanding commitments: {e}"]
                ) from e
        for key in held:
            del self.free[key]
        ledger.share(self.free)
        self.ledgers[domain] = ledger
        self._routing = None
        return domain

    def routing_view(self) -> Model:
        """`close` of the registered delegations, rebuilt only after a
        registration; before any, the closed T-box alone, which states no
        domain. Shared: callers must not mutate it. Every rule joins one
        instance triple with schema, so the ledgers, each closed onto the
        T-box, merge onto it as that closure unless one owns the index level
        of a schema relation (states schema the T-box lacks)."""
        if self._routing is None:
            tbox = entailed_schema()
            models = [self.ledgers[d].model for d in sorted(self.ledgers, key=lambda d: d.value)]
            if all(m._pos.get(r) is tbox._pos.get(r) for m in models for r in _SCHEMA_RELATIONS):
                self._routing = merge([tbox, *models])
            else:
                self._routing = close(*models)
        return self._routing

    def delegation_views(self) -> list:
        """The registered domains, in IRI order. Nothing in the package calls
        it; perfbench's tracer times it by name."""
        return sorted(self.ledgers, key=lambda d: d.value)

    def issue_ticket(
        self, slice_id: str, domain: Iri, placements, border_allocs, segments, term: Term
    ) -> Ticket:
        """Ticket one domain's share of a slice: a unit from each placement's
        (request node, compute class, delegated pool), and its border sides.
        Raises OverAllocation, taking nothing, when no ledger covers them."""
        ledger = self.ledgers.get(domain)
        if ledger is None:
            raise OverAllocation(f"no delegation registered for {domain.value}")
        ops = [("units", pool, 1) for _, _, pool in placements]
        for iface, bandwidth, label in border_allocs:
            ops.extend(border_ops(iface, bandwidth, label))
        _require_figures(ledger.original, ops)
        ledger.apply_ops(f"ticket:ticket/{self._ticket_counter + 1}", ops)  # numbered once covered
        self._ticket_counter += 1
        return Ticket(
            ticket_id=f"ticket/{self._ticket_counter}",
            slice_id=slice_id,
            domain=domain,
            placements=[(node, cls) for node, cls, _ in placements],
            border_allocs=list(border_allocs),
            segments=list(segments),
            term=term,
        )

    def refund(self, ticket: Ticket) -> None:
        """Give a ticket's units and border figures back to its domain's
        ledger; a no-op once refunded."""
        ledger = self.ledgers.get(ticket.domain)
        token = f"ticket:{ticket.ticket_id}"
        if ledger is not None and ledger.has_token(token):
            ledger.release_token(token)

    def conservation_problems(self) -> list:
        problems = [
            f"{domain.value}: {p}"
            for domain in sorted(self.ledgers, key=lambda d: d.value)
            for p in self.ledgers[domain].conservation_problems()
        ]
        owned = {key for ledger in self.ledgers.values() for key in ledger.original}
        for kind, subject in sorted(self.free.keys() - owned, key=lambda k: (k[1].value, k[0])):
            problems.append(f"{kind} {subject.value}: free figure of no delegation")
        return problems

    def serialized_state(self) -> str:
        return "\n".join(
            serialize_document(self.ledgers[d].snapshot())
            for d in sorted(self.ledgers, key=lambda d: d.value)
        )


class EventLog:
    """The globally sequenced event lines of one World. Actors that log are
    handed this log, never the World, so a World holds no reference cycle
    and is freed as soon as its last reference goes."""

    def __init__(self):
        self.lines: list[str] = []

    def __call__(self, actor: str, kind: str, subject: str, outcome: str) -> None:
        self.lines.append(f"seq {len(self.lines) + 1} {actor} {kind} {subject} {outcome}")


def check_request(docs, closed: Model, extra_rules) -> Optional[SliceRequest]:
    """The verdict on docs (extension schemas first, the request last) over
    their closure: conformance issues, else rule violations, else the typed
    view's refusal or an exceeded join budget as cause, each a SliceError at
    Validation. Returns the view, or None if the closure states no req:Reservation."""
    issues = validate_conformance(*docs, closed=closed)
    if issues:
        raise SliceError("Validation", f"{len(issues)} conformance issues", issues=issues)
    try:
        violations = rules_mod.validate(closed, extra_rules)
        if violations:
            raise SliceError("Validation", f"{len(violations)} rule violations", violations=violations)
        return parse_request(closed, source=docs[-1]) if closed.typed(RESERVATION) else None
    except (ValueError, rules_mod.EvaluationBudgetExceeded) as e:
        raise SliceError("Validation", str(e)) from e


class Controller:
    """Entry point for slice requests: validates, embeds at the delegation
    level, tickets, redeems, and assembles manifests."""

    controller_id = "controller"

    def __init__(self, broker: Broker, clock: VirtualClock, log: EventLog, schemas=()):
        self.broker = broker
        self.clock = clock
        self.log = log
        self.schemas = list(schemas)  # extension T-boxes, for conformance
        # the T-box and its extensions, closed once: requests and substrates
        # close onto it, each in one pass unless it states schema
        self.base = close(*self.schemas).freeze() if self.schemas else entailed_schema()
        self.slices: dict[str, SliceRecord] = {}
        self.extra_rules: list = []

    def create_slice(self, slice_id: str, request_text: str, ams: dict) -> str:
        """The manifest text of a provisioned slice, or SliceError with
        everything taken released. `ams` maps each domain to its AM. An id
        taken or naming no IRI is a ValueError, with nothing logged or taken."""
        if slice_id in self.slices:
            raise ValueError(f"slice {slice_id!r} already exists")
        try:
            Iri(slice_base(slice_id) if slice_id else "")
        except ValueError as e:
            raise ValueError(f"slice id {slice_id!r} names no IRI: {e}") from None
        self._log("slice-request", slice_id, "ok")
        record = SliceRecord(slice_id)
        self.slices[slice_id] = record
        try:
            manifest = self._create(record, request_text, ams)
        except SliceError as e:
            record.failure = e
            self._teardown(record, ams)
            record.state = "Closed"
            raise
        record.state = "Provisioned"
        return manifest

    def _create(self, record: SliceRecord, request_text: str, ams: dict) -> str:
        request = self._validate(record, request_text)
        try:
            plan = embed_mod.embed_request(request, self.broker.routing_view(), dict(self.broker.free))
        except InsufficientResources as e:
            raise SliceError("Binding", str(e))
        except EmbeddingFailed as e:
            raise SliceError("Embedding", str(e))
        self._ticket(record, request, plan)
        hosts, paths = self._redeem(record, ams)
        try:
            prefixes, manifest = build_manifest(request, record.slice_id, plan, hosts, paths)
        except Exception as e:
            raise SliceError("Redeem", f"manifest assembly failed: {e}")
        if not check_homeomorphic(request, manifest):
            raise SliceError("Redeem", "manifest failed the homeomorphism check")
        return serialize_document(manifest, prefixes)

    def _validate(self, record: SliceRecord, request_text: str) -> SliceRequest:
        """`check_request` over the request's one closure onto the T-box,
        then its term against the clock. An unparseable request, and one
        whose closure exceeds its budget, fails with that error as the
        SliceError's cause."""
        try:
            raw = parse_document(request_text)
        except ParseError as e:
            raise SliceError("Validation", f"unparseable request: {e}") from e
        try:
            closed = entail(raw, closed=self.base)
        except ClosureBudgetExceeded as e:
            raise SliceError("Validation", str(e)) from e
        request = check_request((*self.schemas, raw), closed, self.extra_rules)
        if request is None:
            raise SliceError("Validation", "expected exactly one Reservation, found 0")
        if request.term.begin < self.clock.now:
            raise SliceError("Validation", "term begins in the past")
        self._log("validate", record.slice_id, "ok")
        return request

    def _ticket(self, record: SliceRecord, request: SliceRequest, plan: EmbeddingPlan) -> None:
        """One ticket per involved domain: its placements, its sides of the
        border crossings, and its segments of every strand."""
        shares: dict = {}  # domain -> (placements, border sides, segments)

        def share(domain) -> tuple:
            return shares.setdefault(domain, ([], [], []))

        for node in request.nodes:
            domain, pool = plan.binding[node.iri]
            share(domain)[0].append((node.iri, node.compute_class, pool))
        for link in request.links:
            root, branches = plan.strands[link.iri]
            for branch in branches:
                branch_key, hops = (link.iri, branch.to_node), branch.route.hops
                for i, seg in enumerate(branch.route.segments):  # a-side, then b-side
                    for hop, iface in ((hops[i], seg.a_iface), (hops[i + 1], seg.b_iface)):
                        share(hop.element)[1].append((iface, link.bandwidth, seg.label))
                for index, hop in enumerate(hops):
                    from_node = root if hop.ingress is None else None
                    to_node = branch.to_node if hop.egress is None else None
                    share(hop.element)[2].append((
                        branch_key, index, hop, branch.required[index],
                        from_node, to_node, link.layer, link.bandwidth,
                    ))
        try:
            for domain in sorted(shares, key=lambda d: d.value):
                ticket = self.broker.issue_ticket(record.slice_id, domain, *shares[domain], request.term)
                record.tickets.append(ticket)
                self._log("ticket", f"{record.slice_id}/{domain.value}", "ok")
        except OverAllocation as e:
            raise SliceError("Ticketing", str(e))

    def _redeem(self, record: SliceRecord, ams: dict) -> tuple:
        """Redeem every ticket the slice holds at its domain's AM. Returns the
        hosts per request node and the detail path per (branch key, hop index)."""
        node_hosts: dict = {}
        branch_paths: dict = {}
        for ticket in record.tickets:
            am = ams.get(ticket.domain)
            if am is None:
                raise SliceError("Redeem", f"no AM for domain {ticket.domain.value}")
            try:
                placements, paths = am.redeem(ticket, self.clock)
            except RedeemError as e:
                raise SliceError("Redeem", f"{am.am_id}: {e}")
            self._log("redeem", f"{record.slice_id}/{ticket.domain.value}", "ok")
            node_hosts.update(placements)
            branch_paths.update(paths)
        return node_hosts, branch_paths

    def _teardown(self, record: SliceRecord, ams: dict) -> None:
        """Release the slice at each ticketed domain's AM (a no-op where
        nothing was redeemed), and refund its tickets."""
        for ticket in record.tickets:
            am = ams.get(ticket.domain)
            if am is not None:
                am.release_slice(record.slice_id)
            self.broker.refund(ticket)
        record.tickets.clear()

    def delete_slice(self, slice_id: str, ams: dict) -> None:
        record = self.slices.get(slice_id)
        if record is None:
            raise UnknownSlice(slice_id)
        if record.state != "Closed":
            self._teardown(record, ams)
            record.state = "Closed"

    def _log(self, kind: str, subject: str, outcome: str) -> None:
        self.log(self.controller_id, kind, subject, outcome)


class World:
    """Single-threaded driver: owns the actors, the clock, and the event log.

    `schemas` are extension T-boxes applied to every substrate and request."""

    def __init__(self, start: Optional[datetime] = None, schemas=()):
        self.clock = VirtualClock(start)
        self.log = EventLog()
        self.events = self.log.lines
        self.broker = Broker()
        self.controller = Controller(self.broker, self.clock, self.log, schemas)
        self.ams: dict[Iri, AggregateManager] = {}  # by domain

    def add_substrate(self, substrate_text: str) -> AggregateManager:
        """Start an AM for a substrate and register its delegation. Raises
        SubstrateError, with nothing added or logged, for a domain that
        already has an AM (tickets are redeemed at one AM per domain) or a
        delegation the broker rejects."""
        am = AggregateManager(f"am-{len(self.ams) + 1}", substrate_text, self.controller.base)
        other = self.ams.get(am.domain)
        if other is not None:
            raise SubstrateError(
                [f"domain {am.domain.value} already has aggregate manager {other.am_id}"]
            )
        self.broker.register_delegation(am.delegate())
        self.ams[am.domain] = am
        self.log(am.am_id, "delegate", am.domain.value, "ok")
        self.log(self.broker.broker_id, "register", am.domain.value, "ok")
        return am

    def submit_request(self, slice_id: str, request_text: str) -> Optional[str]:
        log = self.controller._log
        try:
            manifest = self.controller.create_slice(slice_id, request_text, self.ams)
        except SliceError as e:
            _drop_frames(e)
            for v in e.violations:
                log("violation", v.subject.value, f'"{v.message}"')
            for issue in e.issues:
                log("issue", issue.subject.value, f'"{issue.kind}"')
            log("slice-failed", slice_id, f"fail:{e.step}")
            log("state", slice_id, "Closed")
            return None
        log("manifest", slice_id, "ok")
        log("state", slice_id, "Provisioned")
        return manifest

    def delete_slice(self, slice_id: str) -> None:
        self.controller.delete_slice(slice_id, self.ams)
        self.controller._log("delete", slice_id, "ok")
        self.controller._log("state", slice_id, "Closed")

    def advance_time(self, to: datetime) -> None:
        self.clock.advance(to)
        self.log("world", "advance", render_datetime(to), "ok")
        for am in self._ams_by_id():
            for slice_id in am.expired_leases(self.clock.now):
                record = self.controller.slices.get(slice_id)
                if record is not None and record.state != "Closed":
                    self.controller.delete_slice(slice_id, self.ams)
                    self.log(am.am_id, "expire", slice_id, "ok")

    def conservation_problems(self) -> list:
        problems = list(self.broker.conservation_problems())
        for am in self._ams_by_id():
            problems.extend(f"{am.am_id}: {p}" for p in am.state.conservation_problems())
        return problems

    def serialized_states(self) -> dict:
        out = {"broker": self.broker.serialized_state()}
        for am in self._ams_by_id():
            out[am.am_id] = am.serialized_state()
        return out

    def _ams_by_id(self) -> list:
        return sorted(self.ams.values(), key=lambda am: am.am_id)
