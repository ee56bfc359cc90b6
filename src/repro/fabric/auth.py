"""Shared-secret HMAC authentication for fabric and cache-peer traffic.

Every network surface this repo exposes ships *pickled* result blobs at
some point of its lifecycle — a cache client unpickles what it fetches
from a peer, and a fabric front-end trusts what its workers compute —
so any node that can speak the wire format must prove membership of the
fleet before a byte of its payload is acted on.  The proof is a single
shared secret: every message (TCP JSON request or HTTP peer request)
carries an HMAC-SHA256 signature over its canonical content, and the
receiver verifies it *before* resolving endpoints, touching the store,
or unpickling anything.

Scope (and honest limits): the signature authenticates *fleet
membership and message integrity*.  It does not encrypt traffic and it
does not prevent replay of a previously captured request — replay of
the read endpoints yields the attacker nothing they could not compute
themselves (and the front-end refuses to replay endpoints not declared
idempotent), but the secret must still travel over trusted channels
(env var, orchestration secrets — never the wire).  For hostile
networks, layer :mod:`repro.fabric.tls` underneath: TLS encrypts and
authenticates the *transport* (a wrong-CA peer never completes the
handshake), HMAC authenticates the *request* — run both; see
``docs/architecture.md`` ("Deployment security").

The secret is configured per process via :data:`SECRET_ENV`
(``REPRO_FABRIC_SECRET``) or passed explicitly; a ``None`` secret
disables auth (open fleet, the pre-fabric behaviour).
"""

from __future__ import annotations

import hashlib
import hmac
import json
import os

#: Environment variable every node reads its shared secret from.
SECRET_ENV = "REPRO_FABRIC_SECRET"

#: HTTP auth scheme name used on cache-peer requests
#: (``Authorization: Repro-HMAC <signature>``).
HTTP_SCHEME = "Repro-HMAC"

#: Priority every message defaults to when the field is absent.
DEFAULT_PRIORITY = "normal"

#: Accepted request priorities, highest first.
PRIORITIES = ("high", "normal", "low")


def default_secret() -> str | None:
    """The process-wide shared secret (:data:`SECRET_ENV`), or ``None``.

    Empty values count as unset, so ``REPRO_FABRIC_SECRET= repro ...``
    cannot silently run an open node while looking configured.
    """
    return os.environ.get(SECRET_ENV) or None


def normalize_priority(priority: str | None) -> str:
    """Map an optional wire priority onto a canonical priority name.

    Raises:
        ValueError: for strings outside :data:`PRIORITIES` — a typo'd
            priority must not silently become best-effort traffic.
    """
    if priority is None:
        return DEFAULT_PRIORITY
    if priority not in PRIORITIES:
        raise ValueError(f"priority must be one of {PRIORITIES}, got {priority!r}")
    return priority


def _digest(secret: str, payload: bytes) -> str:
    return hmac.new(secret.encode(), payload, hashlib.sha256).hexdigest()


def message_signature(secret: str, endpoint: str, kwargs: dict,
                      priority: str | None = None) -> str:
    """Signature of one TCP JSON request (fabric/serve wire format).

    The MAC covers the canonical JSON of ``[endpoint, kwargs,
    priority]`` — everything the receiver acts on.  The request ``id``
    is connection-local bookkeeping and deliberately excluded.

    Args:
        secret: the fleet's shared secret.
        endpoint: wire endpoint name.
        kwargs: the request's JSON-typed kwargs (plain dict).
        priority: optional priority; normalized so a signer omitting
            the field and a signer passing ``"normal"`` agree.
    """
    canonical = json.dumps(
        [endpoint, kwargs, normalize_priority(priority)],
        sort_keys=True, separators=(",", ":"))
    return _digest(secret, canonical.encode())


def sign_message(secret: str | None, message: dict) -> dict:
    """Attach an ``auth`` field to a wire request (no-op when open).

    Args:
        secret: shared secret, or ``None`` for an unauthenticated fleet.
        message: the request dict (``endpoint``/``kwargs``/optionally
            ``priority``); mutated in place and returned.
    """
    if secret is not None:
        message["auth"] = message_signature(
            secret, message.get("endpoint", ""), message.get("kwargs") or {},
            message.get("priority"))
    return message


def verify_message(secret: str, message: dict) -> bool:
    """Whether a wire request's ``auth`` field proves fleet membership.

    Constant-time comparison; any malformed field (non-string or
    non-ASCII ``auth`` included) reads as a bad signature rather than an
    exception.
    """
    signature = message.get("auth")
    if not isinstance(signature, str) or not signature.isascii():
        return False
    try:
        expected = message_signature(
            secret, message.get("endpoint", ""), message.get("kwargs") or {},
            message.get("priority"))
    except (TypeError, ValueError):
        return False
    return hmac.compare_digest(signature, expected)


def http_signature(secret: str, method: str, path: str, body: bytes = b"") -> str:
    """Signature of one HTTP cache-peer request.

    The MAC covers ``"<METHOD> <path> <sha256(body)>"`` — method and
    path bind the signature to one resource and verb, the body digest
    binds it to the exact blob (an attacker cannot re-point a captured
    ``PUT`` at a different key or swap its payload).
    """
    payload = f"{method.upper()} {path} {hashlib.sha256(body).hexdigest()}"
    return _digest(secret, payload.encode())


def http_auth_header(secret: str, method: str, path: str, body: bytes = b"") -> str:
    """The ``Authorization`` header value for one peer request."""
    return f"{HTTP_SCHEME} {http_signature(secret, method, path, body)}"


def verify_http(secret: str, method: str, path: str, body: bytes,
                header: str | None) -> bool:
    """Whether an ``Authorization`` header authenticates a peer request.

    A missing, malformed or non-ASCII header reads as a bad signature.
    """
    if not header:
        return False
    scheme, _, signature = header.partition(" ")
    signature = signature.strip()
    if scheme != HTTP_SCHEME or not signature or not signature.isascii():
        return False
    return hmac.compare_digest(signature, http_signature(secret, method, path, body))
