"""Synthetic domain and TLD populations, calibrated to §5.1 of the paper.

The generator is purely declarative: it produces :class:`DomainSpec` /
:class:`TldSpec` metadata. :mod:`repro.testbed.internet` turns specs into
real signed zones; the scanners then *measure* the hosted zones, so every
reported number flows through the same pipeline as the paper's.

Calibration targets (paper §5.1):

- 8.8 % of registered domains DNSSEC-enabled (26.6 M / 302 M);
- 58.9 % of DNSSEC-enabled domains NSEC3-enabled (15.5 M / 26.6 M);
- NSEC3 parameters via the operator mixtures of Table 2;
- 6.4 % of NSEC3-enabled domains with opt-out;
- TLDs: 1,354 / 1,449 DNSSEC-enabled, 1,302 NSEC3-enabled, 688 with zero
  iterations, 447 at exactly 100 (Identity Digital), 672 saltless,
  558 with 8-byte salts, 7 with 10-byte salts, 85.4 % opt-out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.testbed.operators import OPERATORS, normalized_param_mix

#: TLD label pool for synthetic TLDs beyond the explicit big ones.
_WORDS = (
    "alpha", "bravo", "cargo", "delta", "eagle", "forge", "gamma", "haven",
    "input", "jolly", "karma", "lemon", "magma", "noble", "ocean", "polar",
    "quark", "raven", "sigma", "tango", "umbra", "vivid", "wheat", "xenon",
    "yacht", "zebra",
)


@dataclass(frozen=True)
class DomainSpec:
    """Metadata describing one registered domain before hosting."""

    name: str
    tld: str
    operator: str
    dnssec: bool
    #: "nsec3", "nsec", or "" when unsigned.
    denial: str
    iterations: int = 0
    salt_length: int = 0
    opt_out: bool = False
    tranco_rank: int | None = None

    @property
    def nsec3(self):
        return self.denial == "nsec3"


@dataclass(frozen=True)
class TldSpec:
    """Metadata describing one top-level domain."""

    label: str
    dnssec: bool
    denial: str
    iterations: int = 0
    salt_length: int = 0
    opt_out: bool = False
    #: The registry services provider; the paper highlights Identity
    #: Digital's 447 TLDs at 100 iterations.
    registry: str = "generic"
    #: Whether the registry shares zone contents openly (CZDS-style).
    open_zone_data: bool = False


@dataclass
class PopulationConfig:
    """Knobs for the population generator (paper values as defaults)."""

    n_domains: int = 1000
    seed: int = 2024
    dnssec_rate: float = 0.088
    nsec3_given_dnssec: float = 0.589
    #: Opt-out among NSEC3-enabled registered domains (§5.1: 6.4 %).
    opt_out_rate: float = 0.064
    n_tlds: int = 1449
    tld_dnssec: int = 1354
    tld_nsec3: int = 1302
    tld_zero_iterations: int = 688
    tld_identity_digital: int = 447
    tld_saltless: int = 672
    tld_salt8: int = 558
    tld_salt10: int = 7
    tld_opt_out_rate: float = 0.854
    tld_open_zone_rate: float = 0.849
    #: Weights for assigning domains to the biggest TLDs.
    tld_popularity: tuple = (
        ("com", 0.42),
        ("net", 0.075),
        ("org", 0.065),
        ("de", 0.05),
        ("nl", 0.035),
        ("se", 0.03),
        ("ch", 0.025),
        ("fr", 0.02),
        ("shop", 0.015),
        ("online", 0.01),
    )


def scaled_config(n_domains, n_tlds):
    """A :class:`PopulationConfig` with TLD counts scaled from the paper.

    The paper measured 1,449 TLDs; a smaller testbed keeps the same
    proportions (DNSSEC share, zero-iteration share, salt mixture). This
    is *the* scaling rule of the CLI and of campaign workers — both must
    derive the identical population from ``(n_domains, n_tlds)``, or a
    supervised run would measure a different internet than the
    single-process run it must match byte-for-byte.
    """
    scale = n_tlds / 1449.0
    return PopulationConfig(
        n_domains=n_domains,
        n_tlds=n_tlds,
        tld_dnssec=round(1354 * scale),
        tld_nsec3=round(1302 * scale),
        tld_zero_iterations=round(688 * scale),
        tld_identity_digital=round(447 * scale),
        tld_saltless=round(672 * scale),
        tld_salt8=round(558 * scale),
        tld_salt10=max(1, round(7 * scale)),
    )


def _tld_labels(count):
    """Deterministic pool of TLD labels: real-looking, then synthetic."""
    base = [
        "com", "net", "org", "de", "nl", "se", "ch", "fr", "shop", "online",
        "info", "biz", "io", "co", "uk", "nu", "li", "bank", "app", "dev",
        "ru", "no",  # operator nameserver-brand TLDs (Table 2)
    ]
    labels = list(base)
    index = 0
    while len(labels) < count:
        word = _WORDS[index % len(_WORDS)]
        suffix = index // len(_WORDS)
        labels.append(f"{word}{suffix}" if suffix else word)
        index += 1
    return labels[:count]


def generate_tlds(config=None, rng=None):
    """Generate the TLD population (§5.1 TLD calibration).

    The TLDs that host most registered domains (``tld_popularity``) get the
    parameters their real counterparts use — zero-iteration saltless NSEC3
    with opt-out — so they come out of the zero-iteration budget; the rest
    of the counts are distributed over the remaining labels.
    """
    config = config or PopulationConfig()
    rng = rng or random.Random(config.seed)
    labels = _tld_labels(config.n_tlds)
    reserved = [label for label, __ in config.tld_popularity]
    other_labels = [label for label in labels if label not in set(reserved)]

    specs = [
        TldSpec(
            label,
            True,
            "nsec3",
            iterations=0,
            salt_length=0,
            opt_out=True,
            registry="generic",
            open_zone_data=True,
        )
        for label in reserved
    ]

    n_dnssec = config.tld_dnssec - len(reserved)
    n_nsec3 = config.tld_nsec3 - len(reserved)
    n_identity = config.tld_identity_digital
    n_zero = max(0, config.tld_zero_iterations - len(reserved))

    # Salt assignment within the remaining NSEC3-enabled TLDs (the reserved
    # ones already consumed `len(reserved)` of the saltless budget).
    salt_plan = (
        [0] * max(0, config.tld_saltless - len(reserved))
        + [8] * config.tld_salt8
        + [10] * config.tld_salt10
    )
    salt_plan += [rng.choice((2, 4, 6)) for __ in range(max(0, n_nsec3 - len(salt_plan)))]
    salt_plan = salt_plan[:n_nsec3]
    rng.shuffle(salt_plan)

    for index, label in enumerate(other_labels):
        if index >= n_dnssec:
            specs.append(TldSpec(label, False, ""))
            continue
        if index >= n_nsec3:
            specs.append(
                TldSpec(
                    label,
                    True,
                    "nsec",
                    open_zone_data=rng.random() < config.tld_open_zone_rate,
                )
            )
            continue
        if index < n_identity:
            iterations = 100
            registry = "identity-digital"
        elif index < n_identity + n_zero:
            iterations = 0
            registry = "generic"
        else:
            iterations = rng.choice((1, 1, 2, 3, 5, 8, 10))
            registry = "generic"
        specs.append(
            TldSpec(
                label,
                True,
                "nsec3",
                iterations=iterations,
                salt_length=salt_plan[index],
                opt_out=rng.random() < config.tld_opt_out_rate,
                registry=registry,
                open_zone_data=rng.random() < config.tld_open_zone_rate,
            )
        )
    return specs


def _pick_weighted(rng, mixture):
    """Pick (iterations, salt_length) from a normalised mixture."""
    roll = rng.random()
    acc = 0.0
    for weight, iterations, salt in mixture:
        acc += weight
        if roll <= acc:
            return iterations, salt
    return mixture[-1][1], mixture[-1][2]


def _domain_label(rng, index):
    word1 = _WORDS[rng.randrange(len(_WORDS))]
    word2 = _WORDS[rng.randrange(len(_WORDS))]
    return f"{word1}-{word2}-{index}"


class _StreamTables:
    """Per-config lookup tables shared by every per-index draw."""

    def __init__(self, config, tlds):
        self.config = config
        self.tlds = tlds
        tld_labels = [t.label for t in tlds]
        label_set = set(tld_labels)
        weighted = list(config.tld_popularity)
        self.tld_labels = tld_labels
        self.weighted = [
            (label, weight) for label, weight in weighted if label in label_set
        ]
        self.operator_mixes = {
            op.key: normalized_param_mix(op) for op in OPERATORS
        }
        self.operator_weights = [(op.key, op.share) for op in OPERATORS]
        self.operator_optout = {op.key: op.opt_out_rate for op in OPERATORS}


def _spec_at(tables, index):
    """Derive domain *index* of the population from its own seeded rng.

    Seeding ``random.Random`` with the string ``"{seed}/domain/{index}"``
    hashes it through SHA-512 (PYTHONHASHSEED-independent), so any index
    is computable in O(1) without generating its predecessors — the
    property that lets campaigns shard a multi-million-domain population
    by (start, stride) with no global list.
    """
    config = tables.config
    rng = random.Random(f"{config.seed}/domain/{index}")
    roll = rng.random()
    tld = None
    acc = 0.0
    for label, weight in tables.weighted:
        acc += weight
        if roll <= acc:
            tld = label
            break
    if tld is None:
        tld = tables.tld_labels[rng.randrange(len(tables.tld_labels))]
    name = f"{_domain_label(rng, index)}.{tld}"

    dnssec = rng.random() < config.dnssec_rate
    if not dnssec:
        return DomainSpec(name, tld, "generic-web", False, "")
    if rng.random() >= config.nsec3_given_dnssec:
        return DomainSpec(name, tld, "generic-web", True, "nsec")

    roll = rng.random()
    acc = 0.0
    operator = tables.operator_weights[-1][0]
    for key, share in tables.operator_weights:
        acc += share
        if roll <= acc:
            operator = key
            break
    iterations, salt_length = _pick_weighted(rng, tables.operator_mixes[operator])
    opt_out = rng.random() < tables.operator_optout[operator]
    return DomainSpec(
        name,
        tld,
        operator,
        True,
        "nsec3",
        iterations=iterations,
        salt_length=salt_length,
        opt_out=opt_out,
    )


def tail_domains():
    """The fixed long-tail exemplars appended to every population.

    At paper scale the >150-iteration tail is 43 domains out of 15.5 M —
    invisible in a scaled-down sample. A :class:`Population` built with
    ``include_tail=True`` (the default) appends these few (500
    iterations, 160-byte salts) at indices ``n_domains ..``, so
    tail-sensitive analyses and the probe experiments always have
    witnesses. EXPERIMENTS.md documents the count.
    """
    return [
        DomainSpec("tail-it500-a.com", "com", "other", True, "nsec3", 500, 8),
        DomainSpec("tail-it500-b.net", "net", "other", True, "nsec3", 500, 0),
        DomainSpec("tail-it200.org", "org", "other", True, "nsec3", 200, 8),
        DomainSpec("tail-salt160.com", "com", "other", True, "nsec3", 2, 160),
    ]


class Population:
    """A sequence view of the domain population, computed on demand.

    Behaves like the materialised list (``len``, indexing, iteration,
    equality of elements) while deriving every spec from its index, so
    holding a ``Population`` costs O(1) regardless of ``n_domains``.
    ``spec_for_name`` inverts the generator (the index is embedded in the
    first label), which is what lets authoritative servers materialise
    zones lazily on first query.
    """

    def __init__(self, config=None, tlds=None, include_tail=True):
        self.config = config or PopulationConfig()
        if tlds is None:
            tlds = generate_tlds(
                self.config, random.Random(self.config.seed + 1)
            )
        self.tlds = tlds
        self._tables = _StreamTables(self.config, tlds)
        self._tail = tail_domains() if include_tail else []
        self._tail_by_name = {spec.name: spec for spec in self._tail}

    def __len__(self):
        return self.config.n_domains + len(self._tail)

    def spec_at(self, index):
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        if index >= self.config.n_domains:
            return self._tail[index - self.config.n_domains]
        return _spec_at(self._tables, index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.spec_at(i) for i in range(*index.indices(len(self)))]
        return self.spec_at(index)

    def __iter__(self):
        return self.iter_shard(0, 1)

    def iter_shard(self, start, stride):
        for index in range(start, len(self), stride):
            yield self.spec_at(index)

    def spec_for_name(self, name):
        """The spec whose ``name`` matches, or ``None``.

        O(1): parses the embedded index out of the first label and
        verifies the recomputed spec round-trips to the same name (so a
        lookalike name that merely *ends* in digits cannot alias a real
        domain).
        """
        name = name.rstrip(".").lower()
        tail = self._tail_by_name.get(name)
        if tail is not None:
            return tail
        first_label, __, rest = name.partition(".")
        if not rest:
            return None
        index_text = first_label.rpartition("-")[2]
        if not index_text.isdigit():
            return None
        index = int(index_text)
        if index >= self.config.n_domains:
            return None
        spec = _spec_at(self._tables, index)
        return spec if spec.name == name else None
