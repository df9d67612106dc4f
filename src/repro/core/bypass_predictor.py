"""NoSQ's store-load bypassing predictor (Section 3.3).

The predictor maps each dynamic load to the dynamic in-flight store (if any)
it will read from, expressed as a *dynamic store distance*: the number of
stores renamed between the communicating store and the load.  At rename the
distance converts to a store instance by subtraction
(``SSNbyp = SSNrename - dist``).

Organization (defaults from Section 4.1):

* two parallel 1K-entry, 4-way set-associative tables -- one indexed by load
  PC (path-insensitive), one indexed by load PC XOR'ed with 8 bits of
  branch/call path history (path-sensitive);
* each entry holds a partial tag, a 6-bit distance (64 in-flight stores), a
  3-bit shift amount, a 2-bit store size, and a 7-bit confidence counter --
  5 bytes per entry, 10KB total;
* loads probe both tables; if both hit, the path-sensitive prediction wins;
* on a misprediction, entries are created/updated in both tables;
* sub-threshold confidence converts the prediction to *delay*: the load
  waits for the predicted store to commit and then reads the cache.

Confidence counters are initialized above threshold, decremented sharply when
a path-sensitive prediction was available but the load still mispredicted
(the signature of partial-store, data-dependent, or over-long-path
patterns), and incremented on every other commit of the load.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Distance value meaning "predicted non-bypassing".
NO_BYPASS = 0

#: Store-size encodings for the 2-bit size field.
_SIZE_CODES = {1: 0, 2: 1, 4: 2, 8: 3}
_SIZE_DECODE = {v: k for k, v in _SIZE_CODES.items()}


@dataclass
class BypassPredictorConfig:
    """Sizing and policy knobs (defaults reproduce the 10KB predictor)."""

    entries_per_table: int = 1024
    assoc: int = 4
    history_bits: int = 8
    distance_bits: int = 6
    shift_bits: int = 3
    tag_bits: int = 22
    conf_bits: int = 7
    #: New entries start just above threshold ("initialized at an
    #: above-threshold value").
    conf_init: int = 72
    conf_threshold: int = 64
    #: Sharp decrement on path-sensitive-available mispredictions; gentle
    #: increment otherwise.
    conf_dec: int = 64
    conf_inc: int = 2
    #: Unbounded tables (the "Inf" points of Figure 5).
    unbounded: bool = False

    @property
    def max_distance(self) -> int:
        return (1 << self.distance_bits) - 1

    @property
    def conf_max(self) -> int:
        return (1 << self.conf_bits) - 1

    @property
    def storage_bytes(self) -> int:
        """Total predictor storage, for reporting (10KB at defaults)."""
        entry_bits = (
            self.tag_bits + self.distance_bits + self.shift_bits + 2 + self.conf_bits
        )
        return 2 * self.entries_per_table * ((entry_bits + 7) // 8)


@dataclass(slots=True)
class _Entry:
    tag: int
    dist: int
    shift: int
    size_code: int
    conf: int


@dataclass(slots=True)
class BypassPrediction:
    """Decode-stage output for one dynamic load."""

    hit: bool
    dist: int                 # NO_BYPASS or a positive store distance
    shift: int
    store_size: int
    confident: bool
    path_sensitive: bool

    @property
    def predicts_bypass(self) -> bool:
        return self.hit and self.dist != NO_BYPASS


#: Shared prediction object for table misses (predict() returns one per
#: load; the miss case carries no per-load state, so one instance serves).
_MISS_PREDICTION = BypassPrediction(
    hit=False, dist=NO_BYPASS, shift=0, store_size=8,
    confident=True, path_sensitive=False,
)


@dataclass
class BypassPredictorStats:
    lookups: int = 0
    path_sensitive_hits: int = 0
    path_insensitive_hits: int = 0
    misses: int = 0
    trainings: int = 0
    confidence_drops: int = 0


class _Table:
    """One set-associative predictor table with LRU sets."""

    def __init__(self, config: BypassPredictorConfig) -> None:
        self.config = config
        if config.unbounded:
            self.num_sets = 1
        else:
            entries, assoc = config.entries_per_table, config.assoc
            if assoc < 1 or entries < assoc or entries % assoc:
                raise ValueError(
                    f"bypass predictor entries_per_table ({entries}) must be "
                    f"a positive multiple of its assoc ({assoc})"
                )
            self.num_sets = entries // assoc
            if self.num_sets & (self.num_sets - 1):
                raise ValueError(
                    f"bypass predictor set count ({self.num_sets}) must be "
                    "a power of two"
                )
        self._sets: list[dict[int, _Entry]] = [dict() for _ in range(self.num_sets)]
        self._tag_mask = (1 << config.tag_bits) - 1
        self._index_bits = max(1, self.num_sets.bit_length() - 1)
        self._hash_shift = 32 - self._index_bits
        self._index_mask = self.num_sets - 1
        self._unbounded = config.unbounded

    def _locate(self, key: int) -> tuple[dict[int, _Entry], int]:
        if self.config.unbounded:
            return self._sets[0], key
        # Multiplicative (Fibonacci) hash so strided instruction layouts
        # spread uniformly across sets; the (partial) tag keeps the low key
        # bits for disambiguation.
        index = ((key * 0x9E3779B1) >> (32 - self._index_bits)) & (
            self.num_sets - 1
        )
        tag = key & self._tag_mask
        return self._sets[index], tag

    def lookup(self, key: int) -> _Entry | None:
        # _locate inlined: two lookups per predicted load.
        if self._unbounded:
            return self._sets[0].get(key)
        index = ((key * 0x9E3779B1) >> self._hash_shift) & self._index_mask
        tag = key & self._tag_mask
        entries = self._sets[index]
        entry = entries.get(tag)
        if entry is not None:
            # Refresh LRU position.
            entries.pop(tag)
            entries[tag] = entry
        return entry

    def install(self, key: int, dist: int, shift: int, size_code: int) -> _Entry:
        entries, tag = self._locate(key)
        entry = entries.get(tag)
        if entry is not None:
            entry.dist, entry.shift, entry.size_code = dist, shift, size_code
            if not self.config.unbounded:
                entries.pop(tag)
                entries[tag] = entry
            return entry
        if not self.config.unbounded and len(entries) >= self.config.assoc:
            entries.pop(next(iter(entries)))
        entry = _Entry(tag, dist, shift, size_code, self.config.conf_init)
        entries[tag] = entry
        return entry

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)


class BypassingPredictor:
    """The hybrid path-insensitive / path-sensitive bypassing predictor."""

    def __init__(self, config: BypassPredictorConfig | None = None) -> None:
        self.config = config or BypassPredictorConfig()
        for field in ("history_bits", "distance_bits", "shift_bits",
                      "tag_bits", "conf_bits"):
            if getattr(self.config, field) < 0:
                raise ValueError(
                    f"bypass predictor {field} must be at least 0, "
                    f"got {getattr(self.config, field)}"
                )
        self._plain = _Table(self.config)    # indexed by load PC
        self._path = _Table(self.config)     # indexed by PC ^ path history
        self._hist_mask = (1 << self.config.history_bits) - 1
        self.stats = BypassPredictorStats()

    # -- key construction ---------------------------------------------------

    def _plain_key(self, pc: int) -> int:
        return pc >> 2

    def _path_key(self, pc: int, history: int) -> int:
        return (pc >> 2) ^ (history & self._hist_mask)

    # -- decode-stage prediction --------------------------------------------

    def predict(self, pc: int, history: int) -> BypassPrediction:
        """Predict the bypassing behaviour of the load at *pc*.

        Both tables are probed in parallel; a path-sensitive hit wins.
        """
        self.stats.lookups += 1
        # _path_key/_plain_key inlined (two probes per predicted load).
        key = pc >> 2
        path_entry = self._path.lookup(key ^ (history & self._hist_mask))
        plain_entry = self._plain.lookup(key)
        entry = path_entry if path_entry is not None else plain_entry
        if entry is None:
            self.stats.misses += 1
            return _MISS_PREDICTION
        if path_entry is not None:
            self.stats.path_sensitive_hits += 1
        else:
            self.stats.path_insensitive_hits += 1
        return BypassPrediction(
            hit=True,
            dist=entry.dist,
            shift=entry.shift,
            store_size=_SIZE_DECODE[entry.size_code],
            confident=entry.conf >= self.config.conf_threshold,
            path_sensitive=path_entry is not None,
        )

    # -- commit-stage training ----------------------------------------------

    def train(
        self,
        pc: int,
        history: int,
        mispredicted: bool,
        prediction_available: bool,
        actual_dist: int,
        actual_shift: int = 0,
        actual_store_size: int = 8,
    ) -> None:
        """Commit-time update for the load at *pc*.

        ``actual_dist`` is the distance the load *should* have used
        (``NO_BYPASS`` if it should not have bypassed; distances beyond the
        field's range are clamped to non-bypassing, since such a store would
        have left the window anyway).  On a misprediction, entries are
        created/updated in both tables; otherwise only confidence moves.

        A misprediction despite an available prediction is the signature of
        a pattern the predictor cannot capture (partial-store,
        data-dependent, or over-long path): confidence drops in *both*
        tables so the delay decision survives loads whose surrounding path
        context varies (the plain entry is what such a load will consult
        next time).
        """
        cfg = self.config
        if actual_dist > cfg.max_distance or actual_dist < 0:
            actual_dist = NO_BYPASS
        actual_shift &= (1 << cfg.shift_bits) - 1
        size_code = _SIZE_CODES.get(actual_store_size, 3)

        # _plain_key/_path_key inlined (called per committed load).
        plain_key = pc >> 2
        path_key = plain_key ^ (history & self._hist_mask)

        if mispredicted:
            self.stats.trainings += 1
            path_entry = self._path.install(path_key, actual_dist, actual_shift, size_code)
            plain_entry = self._plain.install(plain_key, actual_dist, actual_shift, size_code)
            if prediction_available:
                self.stats.confidence_drops += 1
                path_entry.conf = max(0, path_entry.conf - cfg.conf_dec)
                plain_entry.conf = max(0, plain_entry.conf - cfg.conf_dec)
            return

        # Correct prediction (or a safely delayed load): raise confidence.
        for entry in (self._path.lookup(path_key), self._plain.lookup(plain_key)):
            if entry is not None:
                entry.conf = min(cfg.conf_max, entry.conf + cfg.conf_inc)

    # -- introspection --------------------------------------------------------

    @property
    def occupancy(self) -> tuple[int, int]:
        """(path-insensitive, path-sensitive) live entry counts."""
        return self._plain.occupancy, self._path.occupancy
