"""Pure-Python public-key cryptography for DNSSEC.

The study's control zones (``expired``, ``it-2501-expired``) only behave
correctly if resolvers *really* verify signatures, so this package provides
working RSA (PKCS#1 v1.5 with SHA-1/SHA-256) and ECDSA P-256
implementations rather than stubs. Keys default to small-but-functional
sizes so that signing thousands of synthetic zones stays fast; the code
paths are identical to production-size keys.

This is reproduction infrastructure, not a hardened cryptographic library:
no constant-time guarantees, no side-channel defences.
"""
