"""Block encryption, authentication and padding.

The Java prototype uses Bouncy Castle AES; the reproduction substitutes a
keyed XOR keystream (SHA-256 in counter mode) plus an HMAC-SHA256 tag.  The
substitution is documented in DESIGN.md: nothing in the evaluation depends on
cryptographic strength — what matters is that

* every slot is a fixed-size string indistinguishable from a fresh
  ciphertext (so the adversary cannot distinguish real blocks from dummies or
  correlate rewrites), and
* integrity tags bind a ciphertext to its storage position and freshness
  counter (Appendix A's malicious-server extension).

Encryption cost is charged to the simulated clock by the executor via
:class:`repro.sim.latency.CpuCostModel`, not here; these functions stay pure.

Filler for dummy and empty slots
--------------------------------
Ring ORAM never opens a slot that holds no real block: the planner records
which slots are real, and a slot whose expected block is ``None`` is fetched
(the server must see the read) but never decrypted.  Such slots are therefore
written as :meth:`CipherSuite.filler_blocks` — fresh ``os.urandom`` bytes of
:attr:`CipherSuite.ciphertext_size` length — instead of sealed dummies.  This
is safe because a real ciphertext is ``nonce || plaintext XOR keystream ||
tag`` with a random nonce, and under the PRF assumption the keystream and
the tag already rest on, that string is indistinguishable from uniformly
random bytes of the same length; a uniformly random string is exactly what a
filler slot holds.  Real slots keep their tag bound to (bucket, version,
slot), so Appendix A's freshness and integrity checks still cover every byte
the proxy consumes: a filler (or any other foreign blob) replayed into a real
slot fails its MAC.

Reusing a keystream, or a filler string, across slots would *not* be safe:
two identical slots (or two ciphertexts whose XOR equals the XOR of their
plaintexts) are trivially linkable, which would reveal which slots are
dummies and which rewrites belong together.  Filler is therefore drawn from
the operating system's CSPRNG on every write, never from a seeded or
non-cryptographic generator and never cached.

Hot path
--------
Every real slot an epoch writes is sealed, and every real slot it reads is
opened, so this module stays on the hot path of the tier-1 closed loop (see
``scripts/profile_hotpath.py``).  Three things keep it fast without changing
a single output byte:

* the SHA-256 counter keystream reuses a *midstate*: the hash object over
  ``key`` (and, per ciphertext, ``key + nonce``) is built once and
  ``.copy()``-ed per 32-byte chunk instead of re-hashing the prefix from
  scratch for every chunk;
* the keystream XOR runs over whole blocks at once — via numpy when it is
  importable, via big-integer XOR otherwise — never byte-by-byte;
* the HMAC tags reuse precomputed inner/outer pad midstates, and the
  ``*_many`` batch entry points (:meth:`CipherSuite.encrypt_many`,
  :meth:`CipherSuite.seal_blocks`, …) amortise per-call overhead across a
  padded batch so callers make one vectorised call per batch, not one call
  per slot.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

try:                                    # optional fast path; never required
    import numpy as _np
except ImportError:                     # pragma: no cover - numpy is baked in
    _np = None

#: Blocks at least this long XOR through numpy when it is available; below
#: it the big-integer path wins (array setup costs more than it saves).
_NUMPY_XOR_MIN_BYTES = 1 << 20


class IntegrityError(Exception):
    """Raised when a ciphertext fails authentication or freshness checks."""


def _xor_bytes(data: bytes, stream: bytes) -> bytes:
    """XOR two equal-length byte strings (whole-block, not per byte)."""
    if _np is not None and len(data) >= _NUMPY_XOR_MIN_BYTES:
        out = _np.frombuffer(data, dtype=_np.uint8) ^ _np.frombuffer(
            stream, dtype=_np.uint8)
        return out.tobytes()
    return (int.from_bytes(data, "little")
            ^ int.from_bytes(stream, "little")).to_bytes(len(data), "little")


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Deterministic keystream of ``length`` bytes from (key, nonce).

    Byte-compatible with the original per-chunk construction
    ``sha256(key + nonce + counter_be64)``; the midstate over ``key + nonce``
    is hashed once and copied per chunk.
    """
    return _keystream_from_midstate(_midstate(key, nonce), length)


def _midstate(key: bytes, nonce: bytes) -> "hashlib._Hash":
    """SHA-256 state primed with ``key + nonce``, ready to copy per chunk."""
    state = hashlib.sha256(key)
    state.update(nonce)
    return state


def _keystream_from_midstate(midstate: "hashlib._Hash", length: int) -> bytes:
    """Expand a primed midstate into ``length`` keystream bytes."""
    chunks: List[bytes] = []
    produced = 0
    counter = 0
    pack = struct.pack
    while produced < length:
        chunk = midstate.copy()
        chunk.update(pack(">Q", counter))
        chunks.append(chunk.digest())
        produced += 32
        counter += 1
    return b"".join(chunks)[:length]


@dataclass
class CipherSuite:
    """Encrypts, authenticates and pads ORAM blocks.

    Parameters
    ----------
    key:
        Secret key held by the proxy.  Generated randomly if omitted.
    block_size:
        Plaintext payload size every block is padded to.  Fixed-size
        ciphertexts are what make real and dummy slots indistinguishable.
    authenticated:
        Attach and verify MAC tags binding position and freshness (the
        Appendix A extension).  The honest-but-curious evaluation setting can
        disable this to skip the tag bytes.
    enabled:
        When ``False`` payloads are only padded, not encrypted.  Large
        benchmark sweeps use this to keep Python-side costs manageable; the
        simulated crypto *cost* is still charged by the executor.
    """

    key: bytes = b""
    block_size: int = 64
    authenticated: bool = True
    enabled: bool = True
    _mac_len: int = 16
    _nonce_len: int = 12

    def __post_init__(self) -> None:
        if not self.key:
            self.key = os.urandom(32)
        if self.block_size < 1:
            raise ValueError("block_size must be positive")
        # Midstate caches (not dataclass fields: they derive from ``key``).
        # ``_key_state`` is the SHA-256 state over the key alone; per
        # ciphertext it is copied and extended with the nonce, and that
        # per-ciphertext midstate is copied per 32-byte chunk.
        self._key_state = hashlib.sha256(self.key)
        # HMAC-SHA256 midstates: hash the inner/outer key pads once instead
        # of rebuilding the whole HMAC object per tag.  Matches RFC 2104
        # (and :func:`hmac.new` with sha256) exactly.
        mac_key = self.key if len(self.key) <= 64 else hashlib.sha256(self.key).digest()
        mac_key = mac_key.ljust(64, b"\x00")
        self._hmac_inner = hashlib.sha256(_xor_bytes(mac_key, b"\x36" * 64))
        self._hmac_outer = hashlib.sha256(_xor_bytes(mac_key, b"\x5c" * 64))

    def _mac(self, data: bytes) -> bytes:
        """HMAC-SHA256 tag over ``data`` (truncated), via cached midstates."""
        inner = self._hmac_inner.copy()
        inner.update(data)
        outer = self._hmac_outer.copy()
        outer.update(inner.digest())
        return outer.digest()[: self._mac_len]

    # ------------------------------------------------------------------ #
    # Padding
    # ------------------------------------------------------------------ #
    def pad(self, plaintext: bytes) -> bytes:
        """Length-prefix and pad ``plaintext`` to exactly ``block_size`` bytes."""
        if len(plaintext) > self.block_size - 4:
            raise ValueError(
                f"plaintext of {len(plaintext)} bytes exceeds block capacity "
                f"{self.block_size - 4}"
            )
        header = struct.pack(">I", len(plaintext))
        padded = header + plaintext
        return padded + b"\x00" * (self.block_size - len(padded))

    def unpad(self, padded: bytes) -> bytes:
        """Inverse of :meth:`pad`; rejects blocks with a corrupt tail.

        A well-formed block is ``len || plaintext || zeros``: the header must
        be in range *and* every byte past the payload must be zero.  Garbage
        trailing bytes mean the block was not produced by :meth:`pad` (a
        truncated or spliced ciphertext decrypting to junk), so they raise
        :class:`IntegrityError` instead of being silently dropped.
        """
        if len(padded) != self.block_size:
            raise ValueError(
                f"padded block has {len(padded)} bytes, expected {self.block_size}"
            )
        (length,) = struct.unpack(">I", padded[:4])
        if length > self.block_size - 4:
            raise IntegrityError("corrupt padding header")
        tail = padded[4 + length:]
        if tail.count(0) != len(tail):
            raise IntegrityError("corrupt padding tail: non-zero pad bytes")
        return padded[4:4 + length]

    # ------------------------------------------------------------------ #
    # Encryption
    # ------------------------------------------------------------------ #
    @property
    def ciphertext_size(self) -> int:
        """Size in bytes of every ciphertext this suite produces."""
        if not self.enabled:
            return self.block_size
        size = self._nonce_len + self.block_size
        if self.authenticated:
            size += self._mac_len
        return size

    def _encrypt_padded(self, padded: bytes, context: bytes, nonce: bytes) -> bytes:
        """Seal one already-padded block under a caller-supplied nonce."""
        midstate = self._key_state.copy()
        midstate.update(nonce)
        stream = _keystream_from_midstate(midstate, len(padded))
        blob = nonce + _xor_bytes(padded, stream)
        if self.authenticated:
            blob += self._mac(blob + context)
        return blob

    def encrypt(self, plaintext: bytes, context: bytes = b"") -> bytes:
        """Encrypt (and authenticate) a padded-to-block-size plaintext.

        ``context`` is authenticated but not encrypted; Obladi binds the
        storage position and the epoch/batch freshness counter here so a
        malicious server cannot replay stale or relocated blocks.
        """
        padded = self.pad(plaintext)
        if not self.enabled:
            return padded
        return self._encrypt_padded(padded, context, os.urandom(self._nonce_len))

    def decrypt(self, blob: bytes, context: bytes = b"") -> bytes:
        """Decrypt and verify a ciphertext produced by :meth:`encrypt`."""
        if not self.enabled:
            return self.unpad(blob)
        expected = self.ciphertext_size
        if len(blob) != expected:
            raise IntegrityError(f"ciphertext has {len(blob)} bytes, expected {expected}")
        if self.authenticated:
            body, tag = blob[: -self._mac_len], blob[-self._mac_len:]
            if not hmac.compare_digest(tag, self._mac(body + context)):
                raise IntegrityError("MAC verification failed")
        else:
            body = blob
        nonce, ciphertext = body[: self._nonce_len], body[self._nonce_len:]
        midstate = self._key_state.copy()
        midstate.update(nonce)
        stream = _keystream_from_midstate(midstate, len(ciphertext))
        return self.unpad(_xor_bytes(ciphertext, stream))

    # ------------------------------------------------------------------ #
    # Batched encryption (one call per padded batch, not one per slot)
    # ------------------------------------------------------------------ #
    def encrypt_many(self, plaintexts: Sequence[bytes],
                     contexts: Optional[Sequence[bytes]] = None) -> List[bytes]:
        """Encrypt a batch of plaintexts; equivalent to per-slot :meth:`encrypt`.

        ``contexts`` (optional) supplies one authenticated context per
        plaintext.  Nonces for the whole batch are drawn with a single
        ``os.urandom`` call and the padded batch is XORed as one flat
        buffer, so the per-block Python cost is a handful of hash-object
        copies instead of a per-byte loop.
        """
        n = len(plaintexts)
        if contexts is not None and len(contexts) != n:
            raise ValueError(f"{len(contexts)} contexts for {n} plaintexts")
        padded = [self.pad(p) for p in plaintexts]
        if not self.enabled or n == 0:
            return padded

        nonce_len = self._nonce_len
        nonces = os.urandom(nonce_len * n)
        key_state = self._key_state
        streams: List[bytes] = []
        for i in range(n):
            midstate = key_state.copy()
            midstate.update(nonces[i * nonce_len:(i + 1) * nonce_len])
            streams.append(_keystream_from_midstate(midstate, self.block_size))

        bodies = _xor_bytes(b"".join(padded), b"".join(streams))
        size = self.block_size
        out: List[bytes] = []
        for i in range(n):
            blob = (nonces[i * nonce_len:(i + 1) * nonce_len]
                    + bodies[i * size:(i + 1) * size])
            if self.authenticated:
                context = contexts[i] if contexts is not None else b""
                blob += self._mac(blob + context)
            out.append(blob)
        return out

    def decrypt_many(self, blobs: Sequence[bytes],
                     contexts: Optional[Sequence[bytes]] = None) -> List[bytes]:
        """Decrypt a batch of ciphertexts; equivalent to per-slot :meth:`decrypt`.

        Verification failures raise exactly as :meth:`decrypt` does, at the
        first offending blob.
        """
        n = len(blobs)
        if contexts is not None and len(contexts) != n:
            raise ValueError(f"{len(contexts)} contexts for {n} blobs")
        if not self.enabled:
            return [self.unpad(blob) for blob in blobs]
        if n == 0:
            return []

        expected = self.ciphertext_size
        nonce_len, mac_len = self._nonce_len, self._mac_len
        bodies: List[bytes] = []
        streams: List[bytes] = []
        key_state = self._key_state
        for i, blob in enumerate(blobs):
            if len(blob) != expected:
                raise IntegrityError(
                    f"ciphertext has {len(blob)} bytes, expected {expected}")
            if self.authenticated:
                body, tag = blob[:-mac_len], blob[-mac_len:]
                context = contexts[i] if contexts is not None else b""
                if not hmac.compare_digest(tag, self._mac(body + context)):
                    raise IntegrityError("MAC verification failed")
            else:
                body = blob
            midstate = key_state.copy()
            midstate.update(body[:nonce_len])
            streams.append(_keystream_from_midstate(midstate, self.block_size))
            bodies.append(body[nonce_len:])

        padded = _xor_bytes(b"".join(bodies), b"".join(streams))
        size = self.block_size
        return [self.unpad(padded[i * size:(i + 1) * size]) for i in range(n)]

    # ------------------------------------------------------------------ #
    # Block serialisation helpers
    # ------------------------------------------------------------------ #
    def seal_block(self, block_id: Optional[int], value: bytes, context: bytes = b"") -> bytes:
        """Serialise and encrypt a (block id, value) pair; ``None`` id = dummy."""
        bid = block_id if block_id is not None else 0xFFFFFFFF
        payload = struct.pack(">I", bid) + value
        return self.encrypt(payload, context)

    def seal_blocks(self, entries: Sequence[Tuple[Optional[int], bytes, bytes]]
                    ) -> List[bytes]:
        """Seal a batch of ``(block_id_or_None, value, context)`` entries.

        One vectorised call per bucket rewrite (or padded batch) replacing a
        :meth:`seal_block` call per slot; the outputs are byte-equivalent.
        """
        payloads = [
            struct.pack(">I", bid if bid is not None else 0xFFFFFFFF) + value
            for bid, value, _ in entries]
        return self.encrypt_many(payloads, [context for _, _, context in entries])

    def open_block(self, blob: bytes, context: bytes = b"") -> Tuple[Optional[int], bytes]:
        """Inverse of :meth:`seal_block`; returns ``(block_id_or_None, value)``."""
        return self._split_payload(self.decrypt(blob, context))

    def open_blocks(self, blobs: Sequence[bytes], contexts: Sequence[bytes]
                    ) -> List[Tuple[Optional[int], bytes]]:
        """Inverse of :meth:`seal_blocks` for a batch of ciphertexts."""
        return [self._split_payload(payload)
                for payload in self.decrypt_many(blobs, contexts)]

    @staticmethod
    def _split_payload(payload: bytes) -> Tuple[Optional[int], bytes]:
        """Split a decrypted slot payload into ``(block_id_or_None, value)``."""
        if len(payload) < 4:
            raise IntegrityError("sealed block too short")
        (bid,) = struct.unpack(">I", payload[:4])
        block_id = None if bid == 0xFFFFFFFF else bid
        return block_id, payload[4:]

    def filler_blocks(self, count: int) -> List[bytes]:
        """Payloads for ``count`` slots that hold no real block.

        Each is :attr:`ciphertext_size` fresh ``os.urandom`` bytes, drawn
        with one call for the whole batch, and is never opened (see the
        module docstring for why this is as good as a sealed dummy).  With
        encryption disabled the payload is the padded dummy record that
        :meth:`seal_block` produces for ``(None, b"")``.
        """
        if not self.enabled:
            return [self.pad(struct.pack(">I", 0xFFFFFFFF))] * count
        size = self.ciphertext_size
        pool = os.urandom(size * count)
        return [pool[i * size:(i + 1) * size] for i in range(count)]


def freshness_context(bucket: int, version: int, slot: int = -1) -> bytes:
    """Canonical authenticated context binding position and freshness.

    Appendix A requires every stored value to be bound to the pair
    (location, write counter); slots additionally bind their index.
    """
    return struct.pack(">qqq", bucket, version, slot)
