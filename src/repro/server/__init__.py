"""Authoritative name server and its query log."""
