"""Domain names: parsing, wire format, canonical form and canonical ordering.

Implements the subset of RFC 1035 name handling that DNS messages need, plus
the DNSSEC canonical form and canonical total order of RFC 4034 §6, which
NSEC chains and RRSIG computation depend on.

Names are immutable and hashable. Internally a name is a tuple of labels
(``bytes``), *not* including a trailing empty label; the root name is the
empty tuple. All names in this library are absolute.
"""

from __future__ import annotations

import functools

from repro.memo import Memo

MAX_NAME_WIRE_LENGTH = 255
MAX_LABEL_LENGTH = 63


class NameError_(ValueError):
    """Raised for malformed domain names (bad labels, overlong names)."""


#: Intern table for trusted (wire-parsed or sliced) names, keyed on the
#: exact-case label tuple. A campaign decodes the same handful of owner
#: names millions of times; interning lets every parse share one object
#: and therefore one ``_key``/``_hash``/``_canonical_wire`` memo.
interned = Memo("names", 65536)


def _validate_labels(labels):
    total = 1  # trailing root length byte
    for label in labels:
        if not label:
            raise NameError_("empty interior label")
        if len(label) > MAX_LABEL_LENGTH:
            raise NameError_(f"label exceeds 63 octets: {label[:16]!r}...")
        total += len(label) + 1
    if total > MAX_NAME_WIRE_LENGTH:
        raise NameError_(f"name exceeds 255 octets in wire form ({total})")


@functools.total_ordering
class Name:
    """An absolute domain name.

    >>> Name.from_text("WWW.Example.COM.").to_text()
    'www.example.com.'
    >>> Name.from_text("a.example.") < Name.from_text("Z.example.")
    True
    """

    __slots__ = ("labels", "_hash", "_canonical_key", "_canonical_wire", "_text")

    def __init__(self, labels):
        labels = tuple(bytes(label) for label in labels)
        _validate_labels(labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_canonical_key", None)
        object.__setattr__(self, "_canonical_wire", None)
        object.__setattr__(self, "_text", None)

    def __setattr__(self, name, value):
        raise AttributeError("Name objects are immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def _trusted(cls, labels):
        """Wrap a label tuple whose invariants are already established.

        Wire parsing enforces the label/name length limits while reading
        and slicing an existing name can only shrink it, so both skip the
        per-label revalidation — name construction is the decode path's
        hottest allocation. *labels* must be a tuple of bytes.

        Trusted names are interned (bounded) so repeated parses of the
        same owner share one object and its memoized canonical forms.
        """
        self = interned.get(labels)
        if self is not None:
            return self
        self = object.__new__(cls)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_canonical_key", None)
        object.__setattr__(self, "_canonical_wire", None)
        object.__setattr__(self, "_text", None)
        interned.put(labels, self)
        return self

    @classmethod
    def from_text(cls, text):
        """Parse a presentation-format name.

        Accepts both absolute (``example.com.``) and relative-looking
        (``example.com``) spellings; both produce an absolute name. Supports
        ``\\ddd`` decimal escapes and ``\\X`` character escapes.
        """
        if isinstance(text, Name):
            return text
        if text in (".", ""):
            return cls(())
        if "\\" not in text and text.isascii():
            # Escape-free ASCII: the labels are the dot-separated pieces.
            labels = text.encode("ascii").split(b".")
            if not labels[-1]:
                labels.pop()
            if not all(labels):
                raise NameError_(f"empty label in {text!r}")
            return cls(labels)
        return cls._from_escaped_text(text)

    @classmethod
    def _from_escaped_text(cls, text):
        """The general parser: one character at a time, escapes decoded."""
        labels = []
        current = bytearray()
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch == "\\":
                if i + 3 < n + 1 and text[i + 1 : i + 4].isdigit():
                    code = int(text[i + 1 : i + 4])
                    if code > 255:
                        raise NameError_(f"escape out of range in {text!r}")
                    current.append(code)
                    i += 4
                elif i + 1 < n:
                    current.append(ord(text[i + 1]))
                    i += 2
                else:
                    raise NameError_(f"trailing backslash in {text!r}")
            elif ch == ".":
                if not current:
                    raise NameError_(f"empty label in {text!r}")
                labels.append(bytes(current))
                current = bytearray()
                i += 1
            else:
                current.append(ord(ch))
                i += 1
        if current:
            labels.append(bytes(current))
        return cls(labels)

    @classmethod
    def from_labels(cls, *labels):
        """Build a name from text or bytes labels, most-specific first."""
        encoded = [
            label.encode("ascii") if isinstance(label, str) else bytes(label)
            for label in labels
        ]
        return cls(encoded)

    # -- rendering -------------------------------------------------------

    def to_text(self):
        """Presentation format, always with a trailing dot (memoized)."""
        text = self._text
        if text is not None:
            return text
        if not self.labels:
            return "."
        parts = []
        for label in self.labels:
            chunk = []
            for byte in label:
                ch = chr(byte)
                if ch in ".\\":
                    chunk.append("\\" + ch)
                elif 0x21 <= byte <= 0x7E:
                    chunk.append(ch)
                else:
                    chunk.append(f"\\{byte:03d}")
            parts.append("".join(chunk))
        text = ".".join(parts) + "."
        object.__setattr__(self, "_text", text)
        return text

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Name({self.to_text()!r})"

    # -- wire format -----------------------------------------------------

    def to_wire(self):
        """Uncompressed wire form (compression lives in the writer)."""
        out = bytearray()
        for label in self.labels:
            out.append(len(label))
            out.extend(label)
        out.append(0)
        return bytes(out)

    def canonical_wire(self):
        """RFC 4034 §6.2 canonical form: wire format with labels lowercased.

        Memoized: signing, NSEC3 hashing, and DS digests all canonicalise
        the same owner names over and over, and names are immutable.
        """
        wire = self._canonical_wire
        if wire is None:
            out = bytearray()
            for label in self.labels:
                out.append(len(label))
                out.extend(label.lower())
            out.append(0)
            wire = bytes(out)
            object.__setattr__(self, "_canonical_wire", wire)
        return wire

    # -- structure -------------------------------------------------------

    @property
    def label_count(self):
        """Number of labels, excluding root (the RRSIG ``labels`` field uses this)."""
        return len(self.labels)

    def is_root(self):
        return not self.labels

    def parent(self):
        """Immediate parent. The root's parent raises :class:`NameError_`."""
        if not self.labels:
            raise NameError_("the root name has no parent")
        return Name._trusted(self.labels[1:])

    def split(self, depth):
        """Return ``(prefix, suffix)`` where *suffix* keeps *depth* labels.

        >>> Name.from_text("a.b.example.com.").split(2)
        (Name('a.b.'), Name('example.com.'))
        """
        if depth > len(self.labels):
            raise NameError_(f"cannot keep {depth} labels of {self}")
        cut = len(self.labels) - depth
        return Name._trusted(self.labels[:cut]), Name._trusted(self.labels[cut:])

    def relativize_labels(self, suffix):
        """Labels of *self* below *suffix* (``self`` must be under *suffix*)."""
        if not self.is_subdomain_of(suffix):
            raise NameError_(f"{self} is not under {suffix}")
        return self.labels[: len(self.labels) - len(suffix.labels)]

    def concatenate(self, suffix):
        """Append *suffix*'s labels below the root, i.e. ``self + suffix``."""
        return Name(self.labels + suffix.labels)

    def prepend(self, label):
        """Return a child name with *label* (str or bytes) prepended."""
        if isinstance(label, str):
            label = label.encode("ascii")
        return Name((bytes(label),) + self.labels)

    def is_subdomain_of(self, other):
        """True if *self* equals *other* or lies beneath it (case-insensitive)."""
        other_key = other._key()
        return self._key()[: len(other_key)] == other_key

    def common_ancestor(self, other):
        """Deepest name that is an ancestor of both (possibly the root)."""
        shared = []
        for mine, theirs in zip(reversed(self.labels), reversed(other.labels)):
            if mine.lower() != theirs.lower():
                break
            shared.append(mine)
        shared.reverse()
        return Name._trusted(tuple(shared))

    # -- ordering & equality ----------------------------------------------

    def _key(self):
        """RFC 4034 §6.1 canonical order key: reversed lowercased labels.

        Memoized: this key backs equality, ordering, hashing, and subtree
        containment — the busiest comparisons in the scan engine. A label
        already in lower case is reused, not copied.
        """
        key = self._canonical_key
        if key is None:
            key = tuple(
                label if (lower := label.lower()) == label else lower
                for label in reversed(self.labels)
            )
            object.__setattr__(self, "_canonical_key", key)
        return key

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Name):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other):
        if not isinstance(other, Name):
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self):
        cached = self._hash
        if cached is None:
            cached = hash(self._key())
            object.__setattr__(self, "_hash", cached)
        return cached


#: The root name (``"."``).
root = Name(())
