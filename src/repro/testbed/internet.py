"""Assembles the simulated Internet: root, TLDs, domains, operators.

Every zone is genuinely DNSSEC-signed (per its spec) and hosted on an
authoritative server attached to the simulated network, so the scanners in
:mod:`repro.scanner` measure real protocol behaviour end to end.

Key material comes from a seeded RSA-512 pool: RSA verification is two
orders of magnitude cheaper than signing in pure Python, which matches the
asymmetry real resolvers enjoy via OpenSSL and keeps large testbeds fast.
"""

from __future__ import annotations

import random
import zlib
from collections import OrderedDict
from dataclasses import dataclass

from repro import obs
from repro.crypto.keys import ALG_RSASHA256, KeyPair, generate_keypair, make_ds
from repro.crypto.rsa import RsaPrivateKey
from repro.dns.name import Name
from repro.dns.rdata import NS, A
from repro.dns.rrset import RRset
from repro.dns.types import RdataType
from repro.net.address import AddressAllocator
from repro.net.network import Network
from repro.obs.metrics import ChildCache
from repro.resolver.policy import Nsec3Policy
from repro.resolver.validating import ValidatingResolver
from repro.server.authoritative import AuthoritativeServer
from repro.testbed.operators import OPERATORS_BY_KEY
from repro.zone import build_cache
from repro.zone.builder import ZoneBuilder
from repro.zone.nsec3chain import Nsec3Params
from repro.zone.signing import SigningPolicy, sign_zone


class KeyPool:
    """A pool of pre-generated signing keys, cycled across zones.

    Sharing keys across synthetic zones collapses key-generation cost from
    O(zones) to O(1) while leaving every signature and validation real.
    Real operators do reuse infrastructure-wide keys far less aggressively;
    nothing in the measured behaviour depends on key uniqueness.

    A 16 + 16 pool of RSA-512 keys is exactly 64 prime searches (0.40 s):
    the primes come from FIPS 186-4 §B.3.3's range, so the modulus never
    misses its bit length and no confirmed prime is discarded.
    """

    def __init__(self, size=16, algorithm=ALG_RSASHA256, rsa_bits=512, seed=42):
        rng = random.Random(seed)
        self._ksks = [
            generate_keypair(algorithm, ksk=True, rsa_bits=rsa_bits, rng=rng)
            for __ in range(size)
        ]
        self._zsks = [
            generate_keypair(algorithm, ksk=False, rsa_bits=rsa_bits, rng=rng)
            for __ in range(size)
        ]
        self._index = 0

    def next_pair(self):
        ksk = self._ksks[self._index % len(self._ksks)]
        zsk = self._zsks[self._index % len(self._zsks)]
        self._index += 1
        return ksk, zsk

    def pair_for(self, name):
        """The pool pair owned by *name* — stable, order-independent.

        Keying on CRC32 of the zone name (never Python's salted
        ``hash()``) means a zone built on first query draws the same keys
        whenever and in whichever process it is built, so every rebuild
        signs a byte-identical zone and the parent's DS needs no zone.
        """
        index = zlib.crc32(str(name).rstrip(".").lower().encode("ascii"))
        return (
            self._ksks[index % len(self._ksks)],
            self._zsks[index % len(self._zsks)],
        )

    def material(self):
        """The pool's RSA key material as a JSON-serialisable document.

        Only defined for RSA pools (the only kind the testbed uses);
        CRT factors are included so a rebuilt pool signs at full speed.
        """
        return {
            "ksks": [_key_material(key) for key in self._ksks],
            "zsks": [_key_material(key) for key in self._zsks],
        }

    @classmethod
    def from_material(cls, material):
        """Rebuild a pool from :meth:`material` without any keygen."""
        pool = cls.__new__(cls)
        pool._ksks = [_key_from_material(doc) for doc in material["ksks"]]
        pool._zsks = [_key_from_material(doc) for doc in material["zsks"]]
        pool._index = 0
        return pool


def _key_material(key):
    private = key.private
    return [key.algorithm, key.flags, private.n, private.e, private.d, private.p, private.q]


def _key_from_material(doc):
    algorithm, flags, n, e, d, p, q = doc
    return KeyPair(algorithm, flags, RsaPrivateKey(n, e, d, p=p, q=q))


def _pooled_keys(seed, size=16, algorithm=ALG_RSASHA256, rsa_bits=512):
    """A :class:`KeyPool`, via the build cache when one is active.

    Generating the pool's RSA keys is the single largest fixed cost of a
    worker's build phase (0.40 s); the first process in a fleet pays it
    and stores the material, everyone else rebuilds the pool from the
    cached integers in milliseconds. Identical material → identical
    signatures, so the cache is invisible to the wire.
    """
    cache = build_cache.active()
    if cache is None or algorithm != ALG_RSASHA256:
        return KeyPool(size=size, algorithm=algorithm, rsa_bits=rsa_bits, seed=seed)
    fingerprint = cache.fingerprint(
        "keypool", f"{size}|{algorithm}|{rsa_bits}|{seed}".encode("ascii")
    )
    material = cache.load("keypool", fingerprint)
    if material is not None:
        cache.count("hit")
        return KeyPool.from_material(material)
    with cache.lock("keypool", fingerprint):
        material = cache.load("keypool", fingerprint)
        if material is not None:
            cache.count("hit")
            return KeyPool.from_material(material)
        cache.count("miss")
        pool = KeyPool(size=size, algorithm=algorithm, rsa_bits=rsa_bits, seed=seed)
        cache.store("keypool", fingerprint, pool.material())
    return pool


@dataclass(frozen=True)
class BuildScope:
    """Which slice of the fleet's work this process pre-warms.

    A scoped build signs the root and TLD zones like any other build
    (through the build cache, so one process in the fleet signs and the
    rest load), and pre-warms the cache with the SLD zones of its own
    unit sub-stream (``Population.iter_shard(shard, workers)``).
    """

    shard: int
    workers: int


@dataclass
class Internet:
    """Handles to everything the testbed built."""

    network: Network
    allocator: AddressAllocator
    root_addresses: list
    trust_anchor_ds: RRset
    root_zone: object
    tld_zones: dict
    tld_specs: list
    #: The streaming :class:`~repro.testbed.population.Population`.
    domain_specs: object
    operator_servers: dict
    operator_ips: dict
    key_pool: KeyPool
    #: The bounded :class:`LazyZoneHost` that builds every SLD zone.
    lazy_host: object
    #: How many resolvers :meth:`make_resolver` has made, for default names.
    resolvers_made: int = 0

    def make_resolver(
        self,
        policy=None,
        validate=True,
        network_id="public",
        ipv6=False,
        name=None,
        guard=None,
    ):
        """Attach a new recursive resolver to the network and return it.

        *guard* is an optional :class:`repro.resolver.guard.GuardConfig`;
        the default None keeps the resolver's legacy unbounded behaviour.
        """
        ip = self.allocator.next_v6() if ipv6 else self.allocator.next_v4()
        resolver = ValidatingResolver(
            self.network,
            ip,
            self.root_addresses,
            self.trust_anchor_ds,
            policy=policy or Nsec3Policy(),
            validate=validate,
            name=name or f"resolver-{self.resolvers_made}",
            guard=guard,
        )
        self.network.attach(ip, resolver, network_id=network_id)
        self.resolvers_made += 1
        return resolver

    def zone_of(self, domain):
        """The zone of population domain *domain*, built if not resident."""
        spec = self.domain_specs.spec_for_name(str(domain))
        if spec is None:
            return None
        return self.operator_servers[spec.operator].zone_for(domain)


def zone_rng(seed, name):
    """The per-zone rng: every zone's random content (A-record addresses,
    NSEC3 salt bytes) derives from ``(seed, zone name)`` alone, so a zone
    built on first query, evicted and built again, or pre-warmed by
    another fleet worker, is byte-identical each time."""
    return random.Random(f"{seed}/zone/{str(name).rstrip('.').lower()}")


def _nsec3_params_for(spec, rng):
    salt = bytes(rng.randrange(256) for __ in range(spec.salt_length))
    return Nsec3Params(iterations=spec.iterations, salt=salt, opt_out=spec.opt_out)


def _sign_from_spec(zone, spec, pool, rng, name, defer_signatures=False):
    ksk, zsk = pool.pair_for(name)
    if spec.denial == "nsec3":
        policy = SigningPolicy(nsec3=_nsec3_params_for(spec, rng))
    else:
        policy = SigningPolicy(nsec3=None)
    sign_zone(zone, policy, ksk=ksk, zsk=zsk, defer_signatures=defer_signatures)
    return zone


def _host_address(rng):
    return A._trusted(bytes((198, 18, rng.randrange(256), rng.randrange(1, 255))))


def build_domain_zone(spec, seed, pool, ns_pair, defer_signatures=False):
    """Build (and sign, per its spec) one registered-domain zone.

    Everything is derived from ``(spec, seed)``: addresses and salt from
    the per-zone rng, keys from :meth:`KeyPool.pair_for`. The
    on-first-query :class:`LazyZoneHost` and the shard cache warm-up
    both call this, so a zone rebuilt after eviction, or loaded from
    what another worker stored, is the same zone.

    Assembled from values, not presentation text: *ns_pair* is the
    operator's shared ``(NS, NS)`` rdata, names derive from the origin
    and the A rdata from their octets. Same records, in the same order,
    as ``ZoneBuilder(name).soa(...).ns(...).a("@", ...).a("www", ...)``.
    *defer_signatures* is passed to :func:`sign_zone`.
    """
    rng = zone_rng(seed, spec.name)
    builder = ZoneBuilder(spec.name)
    zone, origin, ttl = builder.zone, builder.origin, builder.ttl
    builder.soa(ns_pair[0].target, origin.prepend("hostmaster"))
    for ns in ns_pair:
        zone.add(origin, RdataType.NS, ttl, ns)
    zone.add(origin, RdataType.A, ttl, _host_address(rng))
    zone.add(origin.prepend("www"), RdataType.A, ttl, _host_address(rng))
    if spec.dnssec:
        _sign_from_spec(zone, spec, pool, rng, spec.name, defer_signatures)
    return zone


def domain_ds_records(spec, pool):
    """The DS set the parent publishes for *spec* (no zone build needed)."""
    if not spec.dnssec:
        return None
    ksk, __ = pool.pair_for(spec.name)
    return [make_ds(spec.name, ksk.dnskey)]


class LazyZoneHost:
    """Materialise population SLD zones on first authoritative query.

    Registered as each operator server's ``zone_factory``: when a query
    misses every hosted zone, the candidate SLD (last two labels) is
    inverted back to its :class:`~repro.testbed.population.DomainSpec`
    and the zone is built, signed, and hosted on the spot; every rebuild
    is byte-identical, because :func:`build_domain_zone` derives all
    content from ``(spec, seed)``. Its signatures are deferred: each is
    computed when a query first reads it. A bounded FIFO keeps at most
    *limit* signed zones resident; evicted zones rebuild
    deterministically if queried again, so cached packed answers stay
    valid across evictions (eviction therefore does **not** invalidate
    answer caches).

    The FIFO is a residency set, not a :class:`~repro.memo.Memo`: each
    eviction must call the hosting server's ``evict_zone`` for that one
    zone, and clearing every zone at once would rebuild the zones a scan
    is still asking about.
    """

    def __init__(self, population, ns_rdata, seed, pool, limit=256):
        self.population = population
        self.ns_rdata = ns_rdata
        self.seed = seed
        self.pool = pool
        self.limit = limit
        self.builds = 0
        self.evictions = 0
        self._resident = OrderedDict()  # origin Name -> hosting server

    def factory_for(self, operator_key, server):
        def factory(qname):
            return self._materialise(operator_key, server, qname)

        return factory

    def _materialise(self, operator_key, server, qname):
        labels = str(qname).rstrip(".").lower().split(".")
        if len(labels) < 2:
            return None
        candidate = ".".join(labels[-2:])
        spec = self.population.spec_for_name(candidate)
        if spec is None or spec.operator != operator_key:
            return None
        zone = build_domain_zone(
            spec, self.seed, self.pool, self.ns_rdata[spec.operator],
            defer_signatures=True,
        )
        server.host_lazily(zone)
        self._resident[zone.origin] = server
        self.builds += 1
        _count_lazy_zone("build")
        while len(self._resident) > self.limit:
            origin, host = self._resident.popitem(last=False)
            host.evict_zone(origin)
            self.evictions += 1
            _count_lazy_zone("eviction")
        return zone


_lazy_zone_counter = ChildCache()


def _count_lazy_zone(event):
    if not obs.enabled:
        return
    child = _lazy_zone_counter.get(obs.registry, event)
    if child is None:
        child = _lazy_zone_counter.put(
            event,
            obs.registry.counter(
                "repro_lazy_zone_builds_total",
                "Lazy SLD zone host activity (builds and FIFO evictions).",
                labelnames=("event",),
            ).labels(event=event),
        )
    child.inc()


def _no_progress():
    pass


class _NullProfiler:
    """Swallows profiler observations during the cache warm pass."""

    @staticmethod
    def observe_iterations(iterations):
        pass


def _warm_shard_cache(population, scope, seed, pool, ns_rdata, progress):
    """Pre-sign this shard's own DNSSEC SLD zones into the build cache.

    The shard's unit sub-stream (``iter_shard(shard, workers)``) names
    exactly the domains its measure phase will query, so the signed
    artifacts are computed here — during the build phase, where the
    heartbeat reports progress — and merely *loaded* when a query
    materialises the zone. Cost accounting must not move: the campaign
    charges a zone's chain hashing at query-time materialisation (cold
    build or cache load, identical either way), so the meter is
    suspended and the iteration profiler nulled for the duration; the
    query-time charge stream is unchanged whether this pass ran or not.
    Zones signed here are discarded — only the cache entries matter.
    """
    from repro.dnssec.costmodel import meter

    saved_profiler = obs.profiler
    obs.profiler = _NullProfiler()
    try:
        with meter.suspended():
            for spec in population.iter_shard(scope.shard, scope.workers):
                if spec.dnssec:
                    build_domain_zone(spec, seed, pool, ns_rdata[spec.operator])
                progress()
    finally:
        obs.profiler = saved_profiler


def build_internet(
    population,
    tld_specs,
    seed=7,
    network=None,
    lazy_domains=True,
    build_scope=None,
    progress=None,
):
    """Build and wire up the whole simulated Internet.

    *population* is a streaming
    :class:`~repro.testbed.population.Population`; *tld_specs* come from
    :func:`~repro.testbed.population.generate_tlds`. The build walks the
    population once without retaining it: the parent TLD zones carry
    every delegation and DS, the root and every TLD zone are signed
    here, and each SLD zone is built and signed only when an
    authoritative query first needs it, through a bounded
    :class:`LazyZoneHost`. What stays resident grows with the working
    set, not the population (about 3.8 KB per scanned domain).
    *lazy_domains* has the one value ``True``.

    A :class:`BuildScope` (fleet workers pass one) pre-warms an active
    build cache with the signed artifacts of this shard's own SLD
    sub-stream. *progress* is an optional zero-arg callback ticked as
    construction advances (the supervised worker feeds it into its
    heartbeat).
    """
    from repro.testbed.population import Population

    if lazy_domains is not True or not isinstance(population, Population):
        raise TypeError(
            "build_internet hosts SLD zones on first query from a streaming Population"
        )
    network = network or Network(seed=seed)
    allocator = AddressAllocator()
    pool = _pooled_keys(seed + 1)
    if progress is None:
        progress = _no_progress

    # --- servers -----------------------------------------------------------
    root_server = AuthoritativeServer("root-servers")
    root_v4, root_v6 = allocator.next_v4(), allocator.next_v6()
    network.attach(root_v4, root_server)
    network.attach(root_v6, root_server)

    registry_server = AuthoritativeServer("tld-registry")
    registry_v4, registry_v6 = allocator.next_v4(), allocator.next_v6()
    network.attach(registry_v4, registry_server)
    network.attach(registry_v6, registry_server)

    tld_builders = {}
    for spec in tld_specs:
        builder = (
            ZoneBuilder(spec.label)
            .soa(f"a.nic.{spec.label}", f"hostmaster.nic.{spec.label}")
            .ns(f"a.nic.{spec.label}.")
            .a(f"a.nic.{spec.label}.", registry_v4)
            .aaaa(f"a.nic.{spec.label}.", registry_v6)
        )
        tld_builders[spec.label] = builder

    # --- delegations ----------------------------------------------------------
    # One pass over the population stream: each SLD is delegated (with
    # its DS) in its parent TLD builder, and the operators that appear
    # are collected. One immutable NS rdata pair per operator: a million
    # delegations and every SLD apex share ~two dozen objects instead of
    # re-parsing the same nameserver names once per cut and per zone.
    ns_domains = {}
    ns_rdata = {}

    def operator_ns(key):
        if key not in ns_rdata:
            profile = OPERATORS_BY_KEY.get(key)
            ns_domain = profile.ns_domain if profile else f"{key.replace('.', '-')}-dns.net"
            ns_domains[key] = ns_domain
            ns_rdata[key] = (NS(f"ns1.{ns_domain}."), NS(f"ns2.{ns_domain}."))
        return ns_rdata[key]

    operator_ns("generic-web")
    for index, spec in enumerate(population):
        ns_pair = operator_ns(spec.operator)
        tld_builder = tld_builders.get(spec.tld)
        if tld_builder is not None:
            tld_builder.delegate(
                Name.from_text(spec.name), *ns_pair, ds=domain_ds_records(spec, pool)
            )
        if not (index + 1) % 1024:
            progress()

    # --- operator servers and their nameserver domains --------------------------
    # Which operators appear decides which servers exist and hence every
    # later address allocation, so they are allocated in sorted order.
    operator_servers = {}
    operator_ips = {}
    for key in sorted(ns_rdata):
        server = AuthoritativeServer(f"op-{key}")
        v4, v6 = allocator.next_v4(), allocator.next_v6()
        network.attach(v4, server)
        network.attach(v6, server)
        operator_servers[key] = server
        operator_ips[key] = (v4, v6)
        ns_domain = ns_domains[key]
        zone = (
            ZoneBuilder(ns_domain)
            .soa(f"ns1.{ns_domain}", f"hostmaster.{ns_domain}")
            .ns(f"ns1.{ns_domain}.", f"ns2.{ns_domain}.")
            .a("ns1", v4)
            .a("ns2", v4)
            .aaaa("ns1", v6)
            .aaaa("ns2", v6)
            .build()
        )
        server.add_zone(zone)
        infra_tld = ns_domain.rsplit(".", 1)[-1]
        builder = tld_builders.get(infra_tld)
        if builder is not None:
            child = Name.from_text(ns_domain)
            builder.delegate(child, f"ns1.{ns_domain}.", f"ns2.{ns_domain}.")
            # In-bailiwick glue for the operator's nameservers.
            builder.a(f"ns1.{ns_domain}.", v4)
            builder.a(f"ns2.{ns_domain}.", v4)
            builder.aaaa(f"ns1.{ns_domain}.", v6)
            builder.aaaa(f"ns2.{ns_domain}.", v6)

    lazy_host = LazyZoneHost(population, ns_rdata, seed, pool)
    for key, server in operator_servers.items():
        server.zone_factory = lazy_host.factory_for(key, server)

    # --- sign and host the TLD zones -------------------------------------------------
    root_builder = (
        ZoneBuilder(".")
        .soa("a.root-servers.net.", "nstld.verisign-grs.com.")
        .ns("a.root-servers.net.")
        .a("a.root-servers.net.", root_v4)
        .aaaa("a.root-servers.net.", root_v6)
    )
    tld_zones = {}
    for spec in tld_specs:
        label = spec.label
        zone = tld_builders[label].build()
        ds_records = None
        if spec.dnssec:
            _sign_from_spec(zone, spec, pool, zone_rng(seed, label), label)
            ds_records = [make_ds(label, zone.keys[0].dnskey)]
        registry_server.add_zone(zone)
        tld_zones[label] = zone
        root_builder.delegate(Name.from_text(label), f"a.nic.{label}.", ds=ds_records)
        root_builder.a(f"a.nic.{label}.", registry_v4)
        root_builder.aaaa(f"a.nic.{label}.", registry_v6)
        progress()

    # --- root zone (NSEC-signed, like the real root) ------------------------------------
    root_zone = root_builder.build()
    ksk, zsk = pool.pair_for(".")
    sign_zone(root_zone, SigningPolicy(nsec3=None), ksk=ksk, zsk=zsk)
    root_server.add_zone(root_zone)
    trust_anchor = RRset(".", RdataType.DS, 3600, [make_ds(".", ksk.dnskey)])

    # --- scoped cache warm-up -----------------------------------------------------------
    if build_scope is not None and build_cache.active() is not None:
        _warm_shard_cache(population, build_scope, seed, pool, ns_rdata, progress)

    return Internet(
        network=network,
        allocator=allocator,
        root_addresses=[root_v4, root_v6],
        trust_anchor_ds=trust_anchor,
        root_zone=root_zone,
        tld_zones=tld_zones,
        tld_specs=list(tld_specs),
        domain_specs=population,
        operator_servers=operator_servers,
        operator_ips=operator_ips,
        key_pool=pool,
        lazy_host=lazy_host,
    )
