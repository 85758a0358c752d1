"""Randomness utilities for population protocol simulations.

The paper's simulator uses the ``ranlux`` generator seeded from a
non-deterministic source to guarantee independence across the 96 simulation
runs behind every data point.  We substitute NumPy's PCG64 generator, which
is of comparable statistical quality, and derive *independent child streams*
for every trial via :class:`numpy.random.SeedSequence` spawning.  This gives
us reproducibility (a single root seed reproduces an entire experiment) while
preserving independence between trials.

The module also provides the primitive random quantities the protocols need:

* fair coin flips,
* geometric random variables with parameter 1/2 (the GRVs of the paper),
* uniform choice of an ordered pair of distinct agents (the random
  scheduler).

The stacked engines draw through a small shared interface — pair
matrices, lane-addressed GRV maxima, uniform matrices, per-row
initial-state sources and a checkpointable ``state`` — that both
:class:`RandomSource` (one stream shared by every row) and
:class:`RowStreams` (one stream per row) implement.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "RandomSource",
    "RowStreams",
    "SeedTree",
    "spawn_streams",
    "make_rng",
]


def make_rng(seed: int | None = None) -> np.random.Generator:
    """Create a NumPy random generator.

    Parameters
    ----------
    seed:
        Root seed.  ``None`` draws entropy from the operating system, which
        mirrors the paper's use of ``std::random_device``; passing an integer
        makes the run reproducible.
    """
    return np.random.default_rng(seed)


def spawn_streams(seed: int | None, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` statistically independent generators from one seed.

    Every independent trial behind a data point uses its own stream, exactly
    as the paper seeds each of its 96 runs independently;
    :func:`repro.engine.runner.run_engine_trials` addresses the same streams
    through :meth:`SeedTree.trial`.

    This is the flat special case of :class:`SeedTree`:
    ``spawn_streams(seed, count)[t]`` is bit-identical to
    ``SeedTree.from_seed(seed).trial(t).generator()``, so code addressing
    trials through the tree interoperates with code using this helper.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return SeedTree.from_seed(seed).streams(count)


#: Spawn-key word marking a hashed (string / out-of-range integer) key
#: block in a :class:`SeedTree` path, keeping hashed keys from colliding
#: with directly-encoded trial indices.  (Golden ratio in 32 bits — an
#: arbitrary constant far above any realistic trial count.)
_HASHED_KEY_TAG = 0x9E3779B9

#: One uint32 word is appended verbatim for integer keys in this range,
#: which makes ``SeedTree.from_seed(s).child(t)`` bit-identical to
#: ``numpy.random.SeedSequence(s).spawn(...)[t]``.
_DIRECT_KEY_LIMIT = 2**32


def _encode_key(key: int | str) -> tuple[int, ...]:
    """Encode one tree key as spawn-key words (uint32 values).

    Integers in ``[0, 2**32)`` encode as themselves — the NumPy
    ``SeedSequence.spawn`` convention, which keeps trial addressing
    compatible with :func:`spawn_streams`.  Strings (scenario names, shard
    namespaces) and out-of-range integers are hashed through SHA-256 into a
    tagged five-word block; the hash is stable across processes and Python
    versions (unlike builtin ``hash``), which the multi-process executors
    rely on.
    """
    if isinstance(key, bool):  # bool is an int subclass; reject to avoid typos
        raise ValueError(f"SeedTree keys must be int or str, got {key!r}")
    if isinstance(key, (int, np.integer)):
        value = int(key)
        if 0 <= value < _DIRECT_KEY_LIMIT:
            return (value,)
        digest = hashlib.sha256(str(value).encode("ascii")).digest()
    elif isinstance(key, str):
        digest = hashlib.sha256(key.encode("utf-8")).digest()
    else:
        raise ValueError(f"SeedTree keys must be int or str, got {key!r}")
    words = tuple(
        int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
    )
    return (_HASHED_KEY_TAG,) + words


@dataclass(frozen=True)
class SeedTree:
    """Deterministic hierarchy of independent random streams.

    A node is an entropy root plus a spawn-key path — exactly the
    coordinates :class:`numpy.random.SeedSequence` uses for spawned
    children, so child streams are statistically independent by the same
    argument.  The tree gives every unit of work an *address* instead of a
    *position in a spawning sequence*: the stream of trial ``t`` of point
    ``p`` of scenario ``s`` is ``tree.child(s).child(p).trial(t)``,
    identical no matter how many sibling trials exist, which shard the
    trial lands in, or how many worker processes execute the shards.  That
    address-based derivation is what makes the sharded executors in
    :mod:`repro.engine.parallel` bit-deterministic across worker counts.

    Integer keys below ``2**32`` append one spawn-key word verbatim, so the
    first tree level is bit-compatible with the historical
    :func:`spawn_streams` derivation: experiment outputs pinned under that
    scheme are unchanged.  String keys hash through SHA-256 (stable across
    processes) into a tagged word block that cannot collide with any
    directly-encoded trial index.

    Nodes are frozen, hashable and picklable, so a node can be shipped to a
    worker process and expanded there.
    """

    entropy: int
    spawn_key: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.entropy < 0:
            raise ValueError(f"entropy must be non-negative, got {self.entropy}")

    @classmethod
    def from_seed(cls, seed: "int | SeedTree | None") -> "SeedTree":
        """Root a tree at a seed; ``None`` draws OS entropy *once*.

        Materialising the entropy up front (instead of letting every worker
        draw its own) is what keeps unseeded runs internally consistent:
        all shards of one run still derive from a single root.
        """
        if isinstance(seed, SeedTree):
            return seed
        if seed is None:
            return cls(entropy=int(np.random.SeedSequence().entropy))
        return cls(entropy=int(seed))

    def child(self, *keys: int | str) -> "SeedTree":
        """The subtree addressed by ``keys`` (ints and/or strings)."""
        path = self.spawn_key
        for key in keys:
            path = path + _encode_key(key)
        return SeedTree(entropy=self.entropy, spawn_key=path)

    def trial(self, trial: int) -> "SeedTree":
        """The subtree of one trial index (readability alias of ``child``)."""
        if trial < 0:
            raise ValueError(f"trial index must be non-negative, got {trial}")
        return self.child(trial)

    def sequence(self) -> np.random.SeedSequence:
        """This node as a NumPy :class:`~numpy.random.SeedSequence`."""
        return np.random.SeedSequence(entropy=self.entropy, spawn_key=self.spawn_key)

    def generator(self) -> np.random.Generator:
        """A fresh PCG64 generator seeded at this node."""
        return np.random.default_rng(self.sequence())

    def source(self) -> "RandomSource":
        """A fresh :class:`RandomSource` seeded at this node."""
        return RandomSource(self.generator())

    def streams(self, count: int) -> list[np.random.Generator]:
        """Generators for children ``0 .. count-1`` (one per trial)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return [self.trial(t).generator() for t in range(count)]


@dataclass
class RandomSource:
    """Thin convenience wrapper over :class:`numpy.random.Generator`.

    Protocols interact with randomness exclusively through this class so
    that the set of random primitives used by the system is explicit and
    easy to audit.  All methods forward to the wrapped generator.

    Attributes
    ----------
    generator:
        The underlying NumPy generator.
    """

    generator: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int | None = None) -> "RandomSource":
        """Build a source from an integer seed (or OS entropy if ``None``)."""
        return cls(make_rng(seed))

    @property
    def state(self) -> dict:
        """The bit generator's state, as engine checkpoints store it."""
        return self.generator.bit_generator.state

    @state.setter
    def state(self, value: dict) -> None:
        self.generator.bit_generator.state = value

    def coin(self) -> bool:
        """Flip a fair coin; ``True`` means heads."""
        return bool(self.generator.integers(0, 2))

    def biased_coin(self, p_true: float) -> bool:
        """Flip a coin that is ``True`` with probability ``p_true``."""
        if not 0.0 <= p_true <= 1.0:
            raise ValueError(f"p_true must lie in [0, 1], got {p_true}")
        return bool(self.generator.random() < p_true)

    def geometric(self) -> int:
        """Sample one Geom(1/2) random variable.

        Returns the number of fair coin flips needed until the first heads,
        i.e. values 1, 2, 3, ... with P[X = i] = 2^-i.  This matches the
        distribution the paper calls a GRV.
        """
        return int(self.generator.geometric(0.5))

    def geometric_max(self, count: int) -> int:
        """Return the maximum of ``count`` independent Geom(1/2) samples.

        Equivalent to Algorithm 3 (``GRV(k)``) of the paper when called with
        ``count = k``, but vectorised.  ``count = 0`` returns 1, matching the
        algorithm's initialisation ``M <- 1``.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return 1
        samples = self.generator.geometric(0.5, size=count)
        return int(samples.max(initial=1))

    def uniform_index(self, n: int) -> int:
        """Pick an index uniformly from ``range(n)``."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        return int(self.generator.integers(0, n))

    def ordered_pair(self, n: int) -> tuple[int, int]:
        """Pick an ordered pair of distinct indices uniformly from ``range(n)``.

        This is the random scheduler of the population protocol model: the
        first index is the *initiator*, the second the *responder*.
        """
        if n < 2:
            raise ValueError(f"need at least two agents, got {n}")
        i = int(self.generator.integers(0, n))
        j = int(self.generator.integers(0, n - 1))
        if j >= i:
            j += 1
        return i, j

    def ordered_pairs(self, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised version of :meth:`ordered_pair` for batched engines.

        Returns two arrays ``(initiators, responders)`` of length ``count``
        with element-wise distinct entries drawn uniformly at random.
        """
        if n < 2:
            raise ValueError(f"need at least two agents, got {n}")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        initiators = self.generator.integers(0, n, size=count)
        responders = self.generator.integers(0, n - 1, size=count)
        responders = np.where(responders >= initiators, responders + 1, responders)
        return initiators, responders

    def ordered_pair_matrix(
        self, n: int, rows: int, count: int, dtype: np.dtype | type = np.int64
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``rows`` independent batches of ordered pairs in one call.

        Returns two ``(rows, count)`` arrays ``(initiators, responders)``
        with element-wise distinct entries, each drawn uniformly at random —
        the ensemble engine's scheduler, which draws the pair batches of all
        stacked trials with a single pass through the generator instead of
        one :meth:`ordered_pairs` call per trial.  ``dtype`` narrows the
        index type (the ensemble engine passes int32 whenever the flat
        coordinate space fits, halving the draw bandwidth).  The draw
        dtype is part of the stream: PCG64 yields different values for
        int32 and int64 draws, so widening it would change every run.  The
        engine widens to ``np.intp`` after the draw instead, when
        :func:`repro.engine.ensemble_engine.flat_pair_indices` builds the
        flat coordinates.
        """
        if n < 2:
            raise ValueError(f"need at least two agents, got {n}")
        if rows < 1:
            raise ValueError(f"rows must be positive, got {rows}")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        initiators = self.generator.integers(0, n, size=(rows, count), dtype=dtype)
        responders = self.generator.integers(0, n - 1, size=(rows, count), dtype=dtype)
        # Branchless collision skip (cheaper than np.where at this call rate).
        responders += responders >= initiators
        return initiators, responders

    def geometric_max_array(self, k: int, count: int) -> np.ndarray:
        """Sample ``count`` independent maxima of ``k`` Geom(1/2) draws each.

        Uses the closed-form inverse CDF ``F(m) = (1 - 2^-m)^k`` — one
        uniform draw per sample instead of ``k`` geometric draws — which is
        what makes per-interaction GRV regeneration affordable inside the
        stacked ensemble engine.  ``1 - u^(1/k)`` is evaluated as
        ``-expm1(log(u) / k)`` so the tail stays finite for ``u`` near 1.
        Distribution-identical to ``geometric(0.5, (count, k)).max(axis=1)``
        but consumes a different slice of the stream.
        """
        if k < 1:
            raise ValueError(f"k must be positive, got {k}")
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.empty(0, dtype=np.float64)
        u = self.generator.random(count)
        with np.errstate(divide="ignore"):
            samples = np.ceil(-np.log2(-np.expm1(np.log(u) / k)))
        return np.maximum(samples, 1.0)

    # ------------------------------------------------- stacked-engine draws
    #
    # The stacked engine and its kernels draw through these methods, which
    # :class:`RowStreams` mirrors with one stream per row.  ``lanes`` are
    # flat row-major positions in a ``(rows, width)`` batch, as
    # ``np.flatnonzero`` returns them; one shared stream needs only their
    # count.

    def row_sources(self, rows: int) -> list["RandomSource"]:
        """The source each of ``rows`` stacked rows draws its initial state from."""
        return [self] * rows

    def row_block(self, start: int, stop: int) -> "RandomSource":
        """The source of stacked rows ``[start, stop)``: this shared stream."""
        return self

    def uniform_matrix(self, rows: int, count: int) -> np.ndarray:
        """A ``(rows, count)`` matrix of uniforms in ``[0, 1)``."""
        return self.generator.random((rows, count))

    def geometric_max_lanes(self, k: int, lanes: np.ndarray, width: int) -> np.ndarray:
        """GRV maxima for ``lanes``: one :meth:`geometric_max_array` call."""
        return self.geometric_max_array(k, lanes.size)

    def shuffled(self, items: Sequence[int]) -> list[int]:
        """Return a shuffled copy of ``items``."""
        arr = np.array(items, dtype=np.int64)
        self.generator.shuffle(arr)
        return [int(x) for x in arr]

    def spawn(self, count: int) -> Iterator["RandomSource"]:
        """Yield ``count`` independent child sources."""
        for child in self.generator.bit_generator.seed_seq.spawn(count):  # type: ignore[union-attr]
            yield RandomSource(np.random.default_rng(child))


class RowStreams:
    """One :class:`RandomSource` per row of a stacked engine.

    The ``batched`` engine runs a shard's trials as stacks, and every row
    must consume exactly the draws its one-row engine makes on its own
    trial stream.  This class offers the stacked-engine draws of
    :class:`RandomSource`, splits each draw at row boundaries and forwards
    every row's part to that row's source — through the same
    :class:`RandomSource` methods a one-row engine calls, so each stream
    sees the same calls in the same order.  Rows without lanes draw
    nothing, as a one-row kernel skips an empty draw.
    """

    def __init__(self, sources: Sequence[RandomSource]) -> None:
        if not sources:
            raise ValueError("RowStreams needs at least one source")
        self.sources = tuple(sources)

    def __len__(self) -> int:
        return len(self.sources)

    @property
    def state(self) -> list[dict]:
        """Every row's bit-generator state, in row order."""
        return [source.state for source in self.sources]

    @state.setter
    def state(self, value: list[dict]) -> None:
        if not isinstance(value, list) or len(value) != len(self.sources):
            raise ValueError(
                f"expected {len(self.sources)} row states, got {type(value).__name__}"
            )
        for source, row_state in zip(self.sources, value):
            source.state = row_state

    def _require_rows(self, rows: int) -> None:
        if rows != len(self.sources):
            raise ValueError(f"{len(self.sources)} row streams cannot draw {rows} rows")

    def row_sources(self, rows: int) -> list[RandomSource]:
        """Each row's own source (``rows`` must equal the stream count)."""
        self._require_rows(rows)
        return list(self.sources)

    def row_block(self, start: int, stop: int) -> "RowStreams":
        """The streams of rows ``[start, stop)``."""
        return RowStreams(self.sources[start:stop])

    def ordered_pair_matrix(
        self, n: int, rows: int, count: int, dtype: np.dtype | type = np.int64
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each row's pairs from its own stream, stacked into ``(rows, count)``.

        A row draws with the one-row engine's index type (int32 while
        ``n < 2**31``) and the stack is widened to ``dtype`` afterwards.
        """
        self._require_rows(rows)
        row_dtype = np.int32 if n < 2**31 else np.int64
        parts = [source.ordered_pair_matrix(n, 1, count, row_dtype) for source in self.sources]
        if len(parts) == 1:
            initiators, responders = parts[0]
        else:
            initiators = np.concatenate([part[0] for part in parts])
            responders = np.concatenate([part[1] for part in parts])
        return (
            initiators.astype(dtype, copy=False),
            responders.astype(dtype, copy=False),
        )

    def uniform_matrix(self, rows: int, count: int) -> np.ndarray:
        """Each row's ``(1, count)`` uniforms from its own stream."""
        self._require_rows(rows)
        return np.concatenate([source.uniform_matrix(1, count) for source in self.sources])

    def _split_lanes(
        self, lanes: np.ndarray, width: int
    ) -> Iterator[tuple[RandomSource, np.ndarray]]:
        """``(source, row lanes)`` for every row that owns at least one lane."""
        bounds = np.searchsorted(lanes, np.arange(1, len(self.sources)) * width).tolist()
        start = 0
        for source, stop in zip(self.sources, bounds + [lanes.size]):
            if stop > start:
                yield source, lanes[start:stop]
            start = stop

    def geometric_max_lanes(self, k: int, lanes: np.ndarray, width: int) -> np.ndarray:
        """GRV maxima for ``lanes``, each row's from its own stream."""
        parts = [
            source.geometric_max_lanes(k, row_lanes, width)
            for source, row_lanes in self._split_lanes(lanes, width)
        ]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)
