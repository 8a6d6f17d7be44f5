"""Tests for repro.dns.name: parsing, canonical ordering, structure."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.dns.name import MAX_LABEL_LENGTH, Name, NameError_, root


class TestParsing:
    def test_simple(self):
        name = Name.from_text("www.example.com")
        assert name.label_count == 3
        assert name.labels == (b"www", b"example", b"com")

    def test_trailing_dot_equivalent(self):
        assert Name.from_text("a.b.") == Name.from_text("a.b")

    def test_root(self):
        assert Name.from_text(".") == root
        assert root.is_root()
        assert root.to_text() == "."

    def test_case_preserved_in_text(self):
        assert Name.from_text("WWW.Example.COM").to_text() == "WWW.Example.COM."

    def test_decimal_escape(self):
        name = Name.from_text("a\\046b.example")
        assert name.labels[0] == b"a.b"

    def test_char_escape(self):
        name = Name.from_text("a\\.b.example")
        assert name.labels[0] == b"a.b"
        assert name.label_count == 2

    def test_escape_round_trip(self):
        name = Name.from_text("a\\.b.example")
        assert Name.from_text(name.to_text()) == name

    def test_empty_label_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("a..b")

    def test_overlong_label_rejected(self):
        with pytest.raises(NameError_):
            Name.from_text("x" * (MAX_LABEL_LENGTH + 1) + ".com")

    def test_overlong_name_rejected(self):
        label = "a" * 63
        with pytest.raises(NameError_):
            Name.from_text(".".join([label] * 5))

    def test_from_labels(self):
        assert Name.from_labels("www", "example", "com") == Name.from_text(
            "www.example.com"
        )

    def test_escape_out_of_range(self):
        with pytest.raises(NameError_):
            Name.from_text("a\\999.example")

    def test_trailing_backslash(self):
        with pytest.raises(NameError_):
            Name.from_text("abc\\")


def _outcome(parse, text):
    try:
        return parse(text).labels
    except ValueError as exc:  # NameError_, or bytearray's for code points > 255
        return type(exc)


class TestSplitPathMatchesTheLoop:
    """Escape-free ASCII text is split on dots; the loop is the reference."""

    #: Dots, escapes (``\\X`` and ``\\ddd``), Latin-1 and wider code
    #: points, and runs long enough to cross the 63/255 limits.
    pieces = st.one_of(
        st.sampled_from(
            [".", "..", "\\", "\\.", "\\046", "\\999", "\\12", "\u00e9", "\u0100", " "]
        ),
        st.text(alphabet="abcXYZ019-_*", min_size=1, max_size=70),
        st.text(min_size=1, max_size=3),
    )

    @given(st.lists(pieces, max_size=8).map("".join))
    @example("a..b")
    @example(".a")
    @example("a.")
    @example("a..")
    @example("..")
    @example("x" * 64 + ".com")
    @example(".".join(["a" * 63] * 4))
    @example(".".join(["a" * 63] * 3 + ["b" * 61]))
    @example("caf\u00e9.example")
    @example("a\\.b.example.")
    def test_same_labels_or_same_error(self, text):
        if text in (".", ""):  # answered before either path
            assert Name.from_text(text) == root
            return
        assert _outcome(Name.from_text, text) == _outcome(
            Name._from_escaped_text, text
        )

    def test_split_path_is_taken(self, monkeypatch):
        def unreachable(text):
            raise AssertionError(f"loop used for {text!r}")

        monkeypatch.setattr(Name, "_from_escaped_text", unreachable)
        assert Name.from_text("WWW.Example.com.").labels == (b"WWW", b"Example", b"com")
        with pytest.raises(NameError_):
            Name.from_text("a..b")


class TestOrdering:
    def test_case_insensitive_equality(self):
        assert Name.from_text("EXAMPLE.com") == Name.from_text("example.COM")
        assert hash(Name.from_text("EXAMPLE.com")) == hash(Name.from_text("example.com"))

    def test_canonical_order_reversed_labels(self):
        # RFC 4034 §6.1: order by most-significant (rightmost) label first.
        a = Name.from_text("z.a.example")
        b = Name.from_text("a.z.example")
        assert a < b  # a.example < z.example branch decides

    def test_rfc4034_example_order(self):
        # The canonical ordering example from RFC 4034 §6.1.
        names = [
            "example.",
            "a.example.",
            "yljkjljk.a.example.",
            "Z.a.example.",
            "zABC.a.EXAMPLE.",
            "z.example.",
        ]
        parsed = [Name.from_text(n) for n in names]
        assert sorted(parsed) == parsed

    def test_sort_stability_with_case(self):
        assert not Name.from_text("A.example") < Name.from_text("a.example")
        assert not Name.from_text("a.example") < Name.from_text("A.example")


class TestStructure:
    def test_parent(self):
        assert Name.from_text("www.example.com").parent() == Name.from_text(
            "example.com"
        )

    def test_root_parent_raises(self):
        with pytest.raises(NameError_):
            root.parent()

    def test_is_subdomain_of(self):
        child = Name.from_text("a.b.example.com")
        assert child.is_subdomain_of(Name.from_text("example.com"))
        assert child.is_subdomain_of(child)
        assert child.is_subdomain_of(root)
        assert not Name.from_text("example.com").is_subdomain_of(child)
        assert not Name.from_text("xexample.com").is_subdomain_of(
            Name.from_text("example.com")
        )

    def test_is_subdomain_case_insensitive(self):
        assert Name.from_text("WWW.EXAMPLE.COM").is_subdomain_of(
            Name.from_text("example.com")
        )

    def test_split(self):
        prefix, suffix = Name.from_text("a.b.example.com").split(2)
        assert prefix == Name.from_text("a.b")
        assert suffix == Name.from_text("example.com")

    def test_split_too_deep_raises(self):
        with pytest.raises(NameError_):
            Name.from_text("a.com").split(5)

    def test_concatenate(self):
        assert Name.from_text("www").concatenate(
            Name.from_text("example.com")
        ) == Name.from_text("www.example.com")

    def test_prepend(self):
        assert Name.from_text("example.com").prepend("*") == Name.from_text(
            "*.example.com"
        )

    def test_common_ancestor(self):
        a = Name.from_text("x.a.example.com")
        b = Name.from_text("y.b.example.com")
        assert a.common_ancestor(b) == Name.from_text("example.com")
        assert a.common_ancestor(Name.from_text("other.net")) == root

    def test_relativize_labels(self):
        name = Name.from_text("a.b.example.com")
        assert name.relativize_labels(Name.from_text("example.com")) == (b"a", b"b")
        with pytest.raises(NameError_):
            name.relativize_labels(Name.from_text("other.org"))

    def test_immutability(self):
        name = Name.from_text("example.com")
        with pytest.raises(AttributeError):
            name.labels = ()


class TestWire:
    def test_to_wire(self):
        assert Name.from_text("ab.c").to_wire() == b"\x02ab\x01c\x00"
        assert root.to_wire() == b"\x00"

    def test_canonical_wire_lowercases(self):
        assert Name.from_text("AB.C").canonical_wire() == b"\x02ab\x01c\x00"

    def test_wire_preserves_case(self):
        assert Name.from_text("AB.c").to_wire() == b"\x02AB\x01c\x00"
