"""Circuits, coupling graphs, QASM/JSON I/O, device library, and benchmark generators."""

from __future__ import annotations

import json
import random
import re
from collections import deque
from dataclasses import dataclass, field

TWO_QUBIT_NAMES = ("cx", "cz", "swap")


class QasmError(ValueError):
    """Malformed or unsupported OpenQASM input."""


class DeviceError(ValueError):
    """Invalid coupling-graph construction."""


@dataclass(frozen=True)
class Gate:
    """A gate acting on one or two program qubits. Single-qubit gates are opaque."""

    id: int
    qubits: tuple[int, ...]
    name: str = "cx"

    def __post_init__(self) -> None:
        if len(self.qubits) not in (1, 2):
            raise ValueError(f"gate {self.id}: expected 1 or 2 qubits, got {len(self.qubits)}")
        if len(self.qubits) == 2 and self.qubits[0] == self.qubits[1]:
            raise ValueError(f"gate {self.id}: duplicate operands")

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``num_qubits`` program qubits. Gate ``i``
    has id ``i``: every module indexes gates by id.

    ``commutable=True`` marks circuits whose gates may execute in any order
    (phase-splitting circuits); their dependency DAG is empty.
    """

    num_qubits: int
    gates: tuple[Gate, ...]
    commutable: bool = False

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError(f"num_qubits must not be negative, got {self.num_qubits}")
        for i, g in enumerate(self.gates):
            if g.id != i:
                raise ValueError(f"gate at index {i} has id {g.id}; gate ids must be 0, 1, 2, ...")
            if any(q < 0 or q >= self.num_qubits for q in g.qubits):
                raise ValueError(f"gate {g.id}: qubit index out of range")

    @classmethod
    def from_pairs(cls, num_qubits: int, pairs, commutable: bool = False) -> "Circuit":
        """Build a two-qubit-gate circuit from a list of qubit pairs."""
        gates = tuple(Gate(i, (a, b)) for i, (a, b) in enumerate(pairs))
        return cls(num_qubits, gates, commutable)

    def reversed(self) -> "Circuit":
        """The same gates in reverse order, re-numbered from 0."""
        rev = tuple(
            Gate(i, g.qubits, g.name) for i, g in enumerate(reversed(self.gates))
        )
        return Circuit(self.num_qubits, rev, self.commutable)


@dataclass(frozen=True)
class Mapping:
    """An injective placement of program qubits onto physical qubits.

    ``assignment[q]`` is the physical qubit holding program qubit ``q``.
    """

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.assignment)) != len(self.assignment):
            raise ValueError("mapping is not injective")
        if any(p < 0 for p in self.assignment):
            raise ValueError("mapping has negative physical index")

    def __getitem__(self, q: int) -> int:
        return self.assignment[q]

    def __len__(self) -> int:
        return len(self.assignment)

    def apply_swaps(self, edges) -> "Mapping":
        """Mapping after exchanging the occupants of each edge, in order."""
        aug = list(self.assignment)
        pos = {p: q for q, p in enumerate(aug)}
        for a, b in edges:
            qa, qb = pos.get(a), pos.get(b)
            if qa is not None:
                aug[qa] = b
            if qb is not None:
                aug[qb] = a
            pos = {p: q for q, p in enumerate(aug)}
        return Mapping(tuple(aug))


class DependencyDag:
    """Gate dependency structure of a circuit.

    Gates sharing a qubit are chained in list order, so every edge runs from
    a lower gate id to a higher one; commutable circuits have no edges at all.
    ``pred_masks[g]`` has bit ``p`` set for each predecessor ``p``: gate ``g``
    may run once ``pred_masks[g] & ~executed == 0``. ``parents2``/``children2``
    link each two-qubit gate to the nearest earlier/later two-qubit gate on
    each of its qubits, and ``depth2[g]`` counts two-qubit ancestors along the
    longest chain (used for position-decay weights).
    """

    def __init__(self, circuit: Circuit):
        n = len(circuit.gates)
        succs: list[set[int]] = [set() for _ in range(n)]
        pred_masks = [0] * n
        parents2: list[tuple[int, ...]] = [()] * n
        children2: list[list[int]] = [[] for _ in range(n)]
        depth2 = [0] * n
        if not circuit.commutable:
            last_gate: dict[int, int] = {}
            last2: dict[int, int] = {}
            chain_depth: dict[int, int] = {}
            for g in circuit.gates:
                par2 = []
                for q in g.qubits:
                    if q in last_gate:
                        succs[last_gate[q]].add(g.id)
                        pred_masks[g.id] |= 1 << last_gate[q]
                    if g.is_two_qubit and q in last2:
                        par2.append(last2[q])
                depth2[g.id] = max((chain_depth.get(q, 0) for q in g.qubits), default=0)
                if g.is_two_qubit:
                    parents2[g.id] = tuple(dict.fromkeys(par2))
                    for p in parents2[g.id]:
                        children2[p].append(g.id)
                    for q in g.qubits:
                        last2[q] = g.id
                        chain_depth[q] = depth2[g.id] + 1
                for q in g.qubits:
                    last_gate[q] = g.id
        self.succs = tuple(tuple(sorted(s)) for s in succs)
        self.pred_masks = tuple(pred_masks)
        self.parents2 = tuple(parents2)
        self.children2 = tuple(tuple(cs) for cs in children2)
        self.depth2 = tuple(depth2)


def build_dag(circuit: Circuit) -> DependencyDag:
    """Dependency DAG of a circuit; empty for commutable circuits."""
    return DependencyDag(circuit)


def uncommon_qubits(g: Gate, parent: Gate) -> tuple[int, int] | None:
    """The two qubits not shared between a gate and one of its parents.

    Returns None when the gates act on the same qubit pair (no distance term).
    """
    diff = set(g.qubits) ^ set(parent.qubits)
    if len(diff) != 2:
        return None
    a, b = sorted(diff)
    return a, b


# ---------------------------------------------------------------------------
# Coupling graphs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingGraph:
    """Device connectivity: vertices are physical qubits, edges allowed 2q gates.

    ``dist`` holds BFS hop counts for all pairs; the graph must be connected.
    """

    num_physical: int
    edges: frozenset[tuple[int, int]]
    name: str = "custom"
    neighbors: tuple[tuple[int, ...], ...] = field(default=(), compare=False)
    dist: tuple[tuple[int, ...], ...] = field(default=(), compare=False)

    @classmethod
    def build(cls, num_physical: int, edges, name: str = "custom") -> "CouplingGraph":
        if num_physical < 1:
            raise DeviceError("device needs at least one qubit")
        norm = set()
        for a, b in edges:
            if a == b:
                raise DeviceError(f"self-loop on qubit {a}")
            if not (0 <= a < num_physical and 0 <= b < num_physical):
                raise DeviceError(f"edge ({a},{b}) out of range")
            norm.add((min(a, b), max(a, b)))
        nbr: list[list[int]] = [[] for _ in range(num_physical)]
        for a, b in norm:
            nbr[a].append(b)
            nbr[b].append(a)
        neighbors = tuple(tuple(sorted(ns)) for ns in nbr)
        dist = _bfs_all_pairs(num_physical, neighbors)
        return cls(num_physical, frozenset(norm), name, neighbors, dist)

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _bfs_all_pairs(n: int, neighbors) -> tuple[tuple[int, ...], ...]:
    rows = []
    for src in range(n):
        row = [-1] * n
        row[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in neighbors[u]:
                if row[v] < 0:
                    row[v] = row[u] + 1
                    queue.append(v)
        if any(d < 0 for d in row):
            raise DeviceError("coupling graph is disconnected")
        rows.append(tuple(row))
    return tuple(rows)


def make_device(kind: str, n: int | None = None, edges=None) -> CouplingGraph:
    """Construct a library device or a custom graph.

    Kinds: ``grid`` (n x n mesh, row-major), ``path`` (line of n), ``sycamore54``
    (54-qubit diagonal diamond), ``eagle127`` (127-qubit heavy-hex), ``custom``
    (explicit edge list).
    """
    if kind == "grid":
        if n is None or n < 2:
            raise DeviceError("grid requires n >= 2")
        e = []
        for r in range(n):
            for c in range(n):
                if c + 1 < n:
                    e.append((r * n + c, r * n + c + 1))
                if r + 1 < n:
                    e.append((r * n + c, (r + 1) * n + c))
        return CouplingGraph.build(n * n, e, name=f"grid:{n}")
    if kind == "path":
        if n is None or n < 2:
            raise DeviceError("path requires n >= 2")
        return CouplingGraph.build(n, [(i, i + 1) for i in range(n - 1)], name=f"path:{n}")
    if kind == "sycamore54":
        return _sycamore54()
    if kind == "eagle127":
        return _eagle127()
    if kind == "custom":
        if edges is None:
            raise DeviceError("custom device requires an edge list")
        num = max((max(a, b) for a, b in edges), default=-1) + 1
        if n is not None:
            num = max(num, n)
        return CouplingGraph.build(num, edges, name="custom")
    raise DeviceError(f"unknown device kind: {kind!r}")


# Diamond of grid-coordinates rows: (row, first column, last column).
_SYCAMORE_ROWS = (
    (0, 5, 6),
    (1, 4, 7),
    (2, 3, 8),
    (3, 2, 9),
    (4, 1, 9),
    (5, 0, 8),
    (6, 1, 7),
    (7, 2, 6),
    (8, 3, 5),
    (9, 4, 4),
)


def _sycamore54() -> CouplingGraph:
    coord_to_id = {}
    for r, c0, c1 in _SYCAMORE_ROWS:
        for c in range(c0, c1 + 1):
            coord_to_id[(r, c)] = len(coord_to_id)
    edges = []
    for (r, c), i in coord_to_id.items():
        for nb in ((r, c + 1), (r + 1, c)):
            if nb in coord_to_id:
                edges.append((i, coord_to_id[nb]))
    return CouplingGraph.build(len(coord_to_id), edges, name="sycamore54")


def _eagle127() -> CouplingGraph:
    # Seven long rows joined by bridge qubits every fourth column; bridge
    # columns alternate (0,4,8,12) / (2,6,10,14) between row gaps.
    row_cols = [range(0, 14)] + [range(0, 15)] * 5 + [range(1, 15)]
    coord_to_id: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []
    next_id = 0
    for r, cols in enumerate(row_cols):
        cols = list(cols)
        for c in cols:
            coord_to_id[(r, c)] = next_id
            next_id += 1
        for c in cols[:-1]:
            edges.append((coord_to_id[(r, c)], coord_to_id[(r, c + 1)]))
        if r > 0:
            bridge_cols = (0, 4, 8, 12) if r % 2 == 1 else (2, 6, 10, 14)
            for c in bridge_cols:
                edges.append((coord_to_id[(r - 1, c)], next_id))
                edges.append((next_id, coord_to_id[(r, c)]))
                next_id += 1
    return CouplingGraph.build(next_id, edges, name="eagle127")


# ---------------------------------------------------------------------------
# OpenQASM 2.0 subset
# ---------------------------------------------------------------------------

_QREG_RE = re.compile(r"^qreg\s+([A-Za-z_][\w]*)\s*\[\s*(\d+)\s*\]$")
_OPERAND_RE = re.compile(r"^([A-Za-z_][\w]*)\s*\[\s*(\d+)\s*\]$")
_GATE_RE = re.compile(r"^([A-Za-z_][\w]*)\s*(\(([^)]*)\))?\s+(.+)$")

_REJECTED_KEYWORDS = ("creg", "measure", "reset", "if", "gate", "opaque")


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 subset: one qreg, cx/cz/swap two-qubit gates,
    any other named gate as an opaque single-qubit gate.

    Classical operations, extra registers, and 3+-qubit gates are rejected.
    Raises QasmError with the offending line number.
    """
    statements = _split_statements(text)
    reg_name = None
    reg_size = 0
    gates: list[Gate] = []
    for line_no, stmt in statements:
        head = stmt.split(None, 1)[0] if stmt else ""
        if head in ("OPENQASM", "include"):
            continue
        if head == "barrier":
            continue
        if head in _REJECTED_KEYWORDS:
            raise QasmError(f"line {line_no}: unsupported construct {head!r}")
        m = _QREG_RE.match(stmt)
        if m:
            if reg_name is not None:
                raise QasmError(f"line {line_no}: only one qreg is supported")
            reg_name, reg_size = m.group(1), int(m.group(2))
            continue
        m = _GATE_RE.match(stmt)
        if not m:
            raise QasmError(f"line {line_no}: cannot parse statement {stmt!r}")
        name, operand_text = m.group(1), m.group(4)
        if reg_name is None:
            raise QasmError(f"line {line_no}: gate before qreg declaration")
        qubits = []
        for op in operand_text.split(","):
            om = _OPERAND_RE.match(op.strip())
            if not om:
                raise QasmError(f"line {line_no}: bad operand {op.strip()!r}")
            if om.group(1) != reg_name:
                raise QasmError(f"line {line_no}: unknown register {om.group(1)!r}")
            idx = int(om.group(2))
            if idx >= reg_size:
                raise QasmError(f"line {line_no}: qubit index {idx} out of range")
            qubits.append(idx)
        if name in TWO_QUBIT_NAMES:
            if len(qubits) != 2:
                raise QasmError(f"line {line_no}: {name} expects two operands")
            if qubits[0] == qubits[1]:
                raise QasmError(f"line {line_no}: duplicate operands")
        else:
            if len(qubits) != 1:
                raise QasmError(
                    f"line {line_no}: unsupported {len(qubits)}-qubit gate {name!r}"
                )
        gates.append(Gate(len(gates), tuple(qubits), name))
    if reg_name is None:
        raise QasmError("no qreg declaration found")
    return Circuit(reg_size, tuple(gates))


def _split_statements(text: str) -> list[tuple[int, str]]:
    """Split on ';' with line tracking; strips // comments."""
    out = []
    buf: list[str] = []
    start_line = 1
    line = 1
    has_content = False
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "/" and text[i : i + 2] == "//":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
        if ch == ";":
            stmt = "".join(buf).strip()
            if stmt:
                out.append((start_line, stmt))
            buf = []
            has_content = False
        else:
            if not has_content and not ch.isspace():
                start_line = line
                has_content = True
            buf.append(ch)
        i += 1
    tail = "".join(buf).strip()
    if tail:
        raise QasmError(f"line {start_line}: statement missing ';'")
    return out


def circuit_to_json(circuit: Circuit) -> dict:
    return {
        "num_qubits": circuit.num_qubits,
        "commutable": circuit.commutable,
        "gates": [{"name": g.name, "qubits": list(g.qubits)} for g in circuit.gates],
    }


_REQUIRED = object()


def _json_field(data, key: str, kind, what: str, default=_REQUIRED):
    """``data[key]`` checked against ``kind`` (JSON booleans are not ints);
    ValueError on a wrong type, or on a missing key without a default."""
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected a JSON object")
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"{what}: missing key {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{what}: {key!r} has the wrong type")
    return value


def _json_ints(value, what: str, length: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers as a tuple, optionally of a fixed length."""
    if not isinstance(value, list) or any(
        not isinstance(x, int) or isinstance(x, bool) for x in value
    ):
        raise ValueError(f"{what}: expected a list of integers")
    if length is not None and len(value) != length:
        raise ValueError(f"{what}: expected {length} elements, got {len(value)}")
    return tuple(value)


def circuit_from_json(data: dict) -> Circuit:
    """Inverse of circuit_to_json; ValueError on malformed input."""
    gates = []
    for i, g in enumerate(_json_field(data, "gates", list, "circuit")):
        what = f"circuit gate {i}"
        qubits = _json_ints(_json_field(g, "qubits", list, what), f"{what} qubits")
        gates.append(Gate(i, qubits, _json_field(g, "name", str, what, default="cx")))
    return Circuit(
        _json_field(data, "num_qubits", int, "circuit"),
        tuple(gates),
        _json_field(data, "commutable", bool, "circuit", default=False),
    )


def device_to_json(graph: CouplingGraph) -> dict:
    return {
        "name": graph.name,
        "num_qubits": graph.num_physical,
        "edges": [list(e) for e in graph.sorted_edges()],
    }


def device_from_json(data: dict) -> CouplingGraph:
    """Inverse of device_to_json; ValueError on malformed input."""
    edges = [
        _json_ints(e, f"device edge {i}", length=2)
        for i, e in enumerate(_json_field(data, "edges", list, "device"))
    ]
    return CouplingGraph.build(
        _json_field(data, "num_qubits", int, "device"),
        edges,
        name=_json_field(data, "name", str, "device", default="custom"),
    )


def load_json(fh) -> object:
    """``json.load``, with input nested too deeply to parse reported as a
    ``ValueError`` like any other malformed JSON."""
    try:
        return json.load(fh)
    except RecursionError:
        raise ValueError(f"{getattr(fh, 'name', 'JSON input')}: JSON nested too deeply") from None


def load_device(path: str) -> CouplingGraph:
    with open(path) as fh:
        return device_from_json(load_json(fh))


# ---------------------------------------------------------------------------
# Benchmark generators
# ---------------------------------------------------------------------------


def gen_queko(
    device: CouplingGraph, depth: int, density: float = 0.5, seed: int = 0
) -> tuple[Circuit, Mapping]:
    """Generate a circuit with a known zero-SWAP, exactly-depth-``depth`` solution.

    Each layer is a matching of device edges under a hidden random placement;
    one gate per layer is chained onto the previous layer so the dependency
    depth cannot collapse below ``depth``. Returns the circuit and the witness
    mapping that executes every gate in place.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must be in (0, 1]")
    rng = random.Random(seed)
    n = device.num_physical
    placement = list(range(n))
    rng.shuffle(placement)  # placement[q] = physical qubit of program qubit q
    phys_to_prog = {p: q for q, p in enumerate(placement)}
    edges = device.sorted_edges()
    gates_per_layer = max(1, int(density * n / 2))
    pairs: list[tuple[int, int]] = []
    chain_p = rng.choice(range(n))
    for _ in range(depth):
        busy = set()
        layer: list[tuple[int, int]] = []
        # Chain gate first: keeps a dependency path threading every layer.
        chain_options = [nb for nb in device.neighbors[chain_p]]
        nb = rng.choice(chain_options)
        layer.append((chain_p, nb))
        busy.update((chain_p, nb))
        chain_p = rng.choice((chain_p, nb))
        shuffled = edges[:]
        rng.shuffle(shuffled)
        for a, b in shuffled:
            if len(layer) >= gates_per_layer:
                break
            if a in busy or b in busy:
                continue
            layer.append((a, b))
            busy.update((a, b))
        pairs.extend((phys_to_prog[a], phys_to_prog[b]) for a, b in layer)
    circuit = Circuit.from_pairs(n, pairs)
    return circuit, Mapping(tuple(placement))


def gen_qaoa(num_qubits: int, seed: int = 0) -> Circuit:
    """Phase-splitting circuit of a random 3-regular graph: one commutable
    two-qubit gate per edge.

    Uses the configuration model with rejection of self-loops and multi-edges.
    """
    if num_qubits < 4 or num_qubits % 2 != 0:
        raise ValueError("3-regular graph needs an even number of qubits >= 4")
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(num_qubits) for _ in range(3)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            a, b = stubs[i], stubs[i + 1]
            if a == b or (min(a, b), max(a, b)) in edges:
                ok = False
                break
            edges.add((min(a, b), max(a, b)))
        if ok:
            return Circuit.from_pairs(num_qubits, sorted(edges), commutable=True)


def gen_chain(num_qubits: int) -> Circuit:
    """Nearest-neighbor entangling chain (GHZ/W-style): gates (i, i+1)."""
    if num_qubits < 2:
        raise ValueError("chain needs at least 2 qubits")
    return Circuit.from_pairs(num_qubits, [(i, i + 1) for i in range(num_qubits - 1)])
