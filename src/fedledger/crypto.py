"""Hashing, account addresses, signatures, and canonical wire encoding.

Digests are raw 32-byte SHA-256 values, addresses are 20-byte account
identifiers derived from a public-key digest. The one signature scheme,
``Keyring``, is deterministic and registry-backed: it satisfies the
sign/verify contract (verification fails for any altered byte or wrong
signer) without the cost of real asymmetric crypto, so it is
simulation-grade, not a real signature scheme.

Canonical encoding rules, used everywhere a structure is hashed or
signed: fields are concatenated in declaration order, integers are
big-endian fixed width, variable-length byte strings carry a 4-byte
big-endian length prefix, fixed-width values (digests, addresses) are
written raw. See docs/serialization.md for the byte-by-byte layout of
every structure.
"""

from __future__ import annotations

import hashlib

DIGEST_LEN = 32
ADDRESS_LEN = 20
SIG_LEN = 32

ZERO_DIGEST = bytes(DIGEST_LEN)
ZERO_ADDRESS = bytes(ADDRESS_LEN)


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` (always 32 bytes, deterministic)."""
    return hashlib.sha256(data).digest()


# -- canonical encoding helpers ------------------------------------------

def enc_u8(v: int) -> bytes:
    return v.to_bytes(1, "big")


def enc_u32(v: int) -> bytes:
    return v.to_bytes(4, "big")


def enc_u64(v: int) -> bytes:
    return v.to_bytes(8, "big")


def enc_u256(v: int) -> bytes:
    return v.to_bytes(32, "big")


def enc_blob(b: bytes) -> bytes:
    """Length-prefixed variable-size byte string."""
    return len(b).to_bytes(4, "big") + b


def enc_digest(d: bytes) -> bytes:
    if len(d) != DIGEST_LEN:
        raise ValueError(f"digest must be {DIGEST_LEN} bytes, got {len(d)}")
    return d


def enc_address(a: bytes) -> bytes:
    if len(a) != ADDRESS_LEN:
        raise ValueError(f"address must be {ADDRESS_LEN} bytes, got {len(a)}")
    return a


class Reader:
    """Cursor for decoding canonical encodings."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated encoding")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def u256(self) -> int:
        return int.from_bytes(self.take(32), "big")

    def blob(self) -> bytes:
        return self.take(self.u32())

    def digest(self) -> bytes:
        return self.take(DIGEST_LEN)

    def address(self) -> bytes:
        return self.take(ADDRESS_LEN)

    def done(self) -> bool:
        return self.pos == len(self.data)


# -- signature scheme ------------------------------------------------------

class SigningKey:
    """Secret key handle bound to one address."""

    __slots__ = ("secret", "address")

    def __init__(self, secret: bytes, address: bytes):
        self.secret = secret
        self.address = address


class Keyring:
    """Deterministic registry-backed signature scheme.

    Accounts are derived from a seeded RNG so a simulation run always
    produces the same addresses. ``verify`` looks the signer up by
    address; unknown addresses verify as False, never raise.
    """

    def __init__(self, rng):
        self._rng = rng
        self._secrets: dict[bytes, bytes] = {}

    def new_account(self) -> SigningKey:
        secret = self._rng.getrandbits(256).to_bytes(32, "big")
        pub = sha256(b"pub:" + secret)
        address = sha256(b"addr:" + pub)[:ADDRESS_LEN]
        self._secrets[address] = secret
        return SigningKey(secret, address)

    @staticmethod
    def sign(key: SigningKey, data: bytes) -> bytes:
        return Keyring.sign_hash(key, sha256(data))

    @staticmethod
    def sign_hash(key: SigningKey, data_hash: bytes) -> bytes:
        """The signature over the data whose SHA-256 is ``data_hash``."""
        return sha256(key.secret + data_hash)

    def verify(self, address: bytes, data: bytes, sig: bytes) -> bool:
        return self.verify_hash(address, sha256(data), sig)

    def verify_hash(self, address: bytes, data_hash: bytes, sig: bytes) -> bool:
        """Whether ``sig`` is the signature of ``address`` over the data whose
        SHA-256 is ``data_hash``: the one secret-hash comparison."""
        secret = self._secrets.get(address)
        if secret is None:
            return False
        return sig == sha256(secret + data_hash)

    def verify_signed(self, obj) -> bool:
        """Check a frozen signed object (``sender``, ``signing_bytes()``, ``signature``).

        A broadcast hands the same object to every receiver, so a success
        is remembered on the object itself, for this keyring only; the
        next call with the same keyring skips the hashing. A failure is
        never remembered. The mark is the attribute ``_verified_by``: a
        ``SignedTx`` holds it in a cache slot, any other object (a
        ``bft.ConsensusMsg``) in its instance dict.

        A ``SignedTx`` that its signer built carries the hash of its signing
        bytes in ``_signing_hash``; the first check compares against that
        instead of rebuilding and hashing the bytes, and a success drops it
        (see ``SignedTx`` for the cache contract).
        """
        if getattr(obj, "_verified_by", None) is self:
            return True
        signing_hash = getattr(obj, "_signing_hash", None)
        if signing_hash is None:
            ok = self.verify(obj.sender, obj.signing_bytes(), obj.signature)
        else:
            ok = self.verify_hash(obj.sender, signing_hash, obj.signature)
        if not ok:
            return False
        if signing_hash is not None:
            set_signing_hash(obj, None)
        object.__setattr__(obj, "_verified_by", self)
        return True


class SignedTx:
    """The base of ``chain.IntraTx`` and ``powchain.InterTx``: wire bytes,
    digest, one-stream signing, and the three tx caches.

    A subclass is a slotted frozen dataclass with ``sender`` and ``signature``
    fields, a ``signing_bytes()`` built on each call, and a hand-written
    ``__init__`` that sets every slot through its member descriptor, each
    cache to None through the setters below. It binds its ``signature``
    slot's setter to ``_set_signature``.

    The caches are this class's slots, not fields: outside the constructor,
    ``==``, ``hash`` and ``repr``, and empty in a copy (``dataclasses.replace``,
    ``copy`` and ``pickle`` all rebuild through the constructor). A frozen
    subclass refuses ``setattr``: the setters below write them (and
    ``verify_signed``, for any signed object, ``object.__setattr__``).
    ``_digest``, the SHA-256 of ``serialize()``, is filled by ``_sign`` or the
    first ``digest()``; ``_verified_by`` is the keyring whose
    ``Keyring.verify_signed`` accepted the tx; ``_signing_hash``, the SHA-256
    of the signing bytes, is filled only by ``_sign`` and dropped by the first
    successful ``verify_signed``. No cache holds the signing bytes, so a tx
    holds its content once.
    """

    __slots__ = ("_digest", "_verified_by", "_signing_hash")

    def __reduce__(self):
        return type(self), tuple(self.__getstate__())  # the frozen dataclass's field values

    def serialize(self) -> bytes:
        return self.signing_bytes() + enc_blob(self.signature)

    def digest(self) -> bytes:
        cached = self._digest
        if cached is None:
            cached = sha256(self.serialize())
            set_digest(self, cached)
        return cached

    def _sign(self, key: SigningKey):
        """Sign this tx, built unsigned with ``key``'s address as its sender, in
        place, and return it. One SHA-256 stream takes the signing bytes, gives
        their hash for the signature and ``_signing_hash``, then takes
        ``enc_blob(signature)`` and gives the digest: the bytes are hashed once."""
        stream = hashlib.sha256(self.signing_bytes())
        signing_hash = stream.digest()
        sig = Keyring.sign_hash(key, signing_hash)
        stream.update(enc_blob(sig))
        self._set_signature(self, sig)
        set_digest(self, stream.digest())
        set_signing_hash(self, signing_hash)
        return self


# The cache setters, bound once.
set_digest, set_verified_by, set_signing_hash = (
    SignedTx.__dict__[name].__set__ for name in SignedTx.__slots__)
