"""Edge-server request log records.

Each HTTP request hitting a CDN edge server produces one
:class:`RequestLog`.  The field set mirrors what the paper reports
collecting from Akamai edge servers (§3.1):

* the time of the request,
* object caching information,
* a client IP address *hashed for anonymity*, and
* select HTTP request/response header information, including
  user-agent, mime type, and object URL.

The record is deliberately a plain frozen, slotted dataclass: logs are
produced in bulk (millions of rows) and consumed by streaming analysis
code, so records must be cheap, small, hashable, and
serialization-friendly.
"""

from __future__ import annotations

import enum
import json
import operator
from dataclasses import MISSING, dataclass, fields
from itertools import islice
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple,
)

__all__ = [
    "CacheStatus",
    "HttpMethod",
    "RequestLog",
    "object_key",
    "client_key",
    "media_type",
    "CHUNK_SIZE",
    "RecordChunk",
    "record_chunks",
]


class HttpMethod(str, enum.Enum):
    """HTTP request methods observed on the CDN.

    The paper's request-type taxonomy (§3.2) maps ``GET`` to downloads
    and ``POST`` to uploads, per RFC 7231 conventions.  Other methods
    occur at trace levels and are retained for completeness.
    """

    GET = "GET"
    POST = "POST"
    PUT = "PUT"
    DELETE = "DELETE"
    HEAD = "HEAD"
    OPTIONS = "OPTIONS"
    PATCH = "PATCH"

    def is_download(self) -> bool:
        """Return True for methods that conventionally retrieve data."""
        return self in (HttpMethod.GET, HttpMethod.HEAD)

    def is_upload(self) -> bool:
        """Return True for methods that conventionally send data."""
        return self in (HttpMethod.POST, HttpMethod.PUT, HttpMethod.PATCH)


class CacheStatus(str, enum.Enum):
    """Cache disposition of a response at the edge server.

    ``NO_STORE`` responses belong to objects the CDN customer marked
    uncacheable; both hits and misses belong to cacheable objects.
    The paper's cacheability metric counts ``NO_STORE`` responses as
    uncacheable traffic (§4, Response Type).
    """

    HIT = "hit"
    MISS = "miss"
    NO_STORE = "no-store"

    @property
    def cacheable(self) -> bool:
        """Whether the object behind this response may be cached."""
        return self is not CacheStatus.NO_STORE


@dataclass(frozen=True, slots=True)
class RequestLog:
    """One edge-server request log line.

    Attributes
    ----------
    timestamp:
        Request arrival time in epoch seconds (float, sub-second
        resolution preserved — periodicity analysis needs it).
    client_ip_hash:
        Keyed hash of the client IP (see :mod:`repro.logs.anonymize`).
        Never a raw address.
    user_agent:
        Raw ``User-Agent`` header value, or ``None`` when the client
        sent none (common for SDK/M2M traffic).
    method:
        HTTP method.
    domain:
        The customer domain serving the object (``Host`` header).
    url:
        Path plus query string of the requested object, e.g.
        ``/api/v2/stories?page=3``.  Together with :attr:`domain` it
        identifies an object flow.
    mime_type:
        ``Content-Type`` of the response, e.g.
        ``application/json; charset=utf-8``.
    status:
        HTTP response status code.
    response_bytes:
        Size of the response body in bytes.
    cache_status:
        Edge cache disposition for this response.
    request_bytes:
        Size of the request body in bytes (0 for GET).
    ttl_seconds:
        Remaining freshness lifetime assigned by customer policy,
        ``None`` for uncacheable objects.
    edge_id:
        Identifier of the serving edge machine (for multi-POP
        datasets).
    """

    timestamp: float
    client_ip_hash: str
    user_agent: Optional[str]
    method: HttpMethod
    domain: str
    url: str
    mime_type: str
    status: int = 200
    response_bytes: int = 0
    cache_status: CacheStatus = CacheStatus.MISS
    request_bytes: int = 0
    ttl_seconds: Optional[float] = None
    edge_id: str = "edge-0"

    def __post_init__(self) -> None:
        # An empty User-Agent header is semantically a missing one;
        # canonicalize so serialization formats agree.
        if self.user_agent == "":
            object.__setattr__(self, "user_agent", None)
        if isinstance(self.method, str) and not isinstance(self.method, HttpMethod):
            object.__setattr__(self, "method", HttpMethod(self.method.upper()))
        if isinstance(self.cache_status, str) and not isinstance(
            self.cache_status, CacheStatus
        ):
            object.__setattr__(self, "cache_status", CacheStatus(self.cache_status))

    # -- derived taxonomy properties ------------------------------------

    @property
    def content_type(self) -> str:
        """The bare media type, lowercased, parameters stripped.

        ``"application/json; charset=utf-8"`` → ``"application/json"``.
        """
        return media_type(self.mime_type)

    @property
    def is_json(self) -> bool:
        """True when the response carries ``application/json`` content.

        Matches the paper's filter (§3.2): requests whose mime type
        contains ``application/json`` (structured suffixes such as
        ``application/problem+json`` are intentionally *not* matched,
        mirroring the paper's exact-token filter).
        """
        return self.content_type == "application/json"

    @property
    def is_upload(self) -> bool:
        """Request-type taxonomy: True for upload (POST-like) requests."""
        return self.method.is_upload()

    @property
    def is_download(self) -> bool:
        """Request-type taxonomy: True for download (GET-like) requests."""
        return self.method.is_download()

    @property
    def cacheable(self) -> bool:
        """Response-type taxonomy: whether the object is cacheable."""
        return self.cache_status.cacheable

    @property
    def object_id(self) -> str:
        """Globally unique object identifier (domain + URL)."""
        return object_key(self.domain, self.url)

    @property
    def client_id(self) -> str:
        """Client identifier: hashed IP + user agent, as in §5.1."""
        return client_key(self.client_ip_hash, self.user_agent)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Return a JSON-serializable dict with enum values flattened."""
        return {
            "timestamp": self.timestamp,
            "client_ip_hash": self.client_ip_hash,
            "user_agent": self.user_agent,
            "method": self.method.value,
            "domain": self.domain,
            "url": self.url,
            "mime_type": self.mime_type,
            "status": self.status,
            "response_bytes": self.response_bytes,
            "cache_status": self.cache_status.value,
            "request_bytes": self.request_bytes,
            "ttl_seconds": self.ttl_seconds,
            "edge_id": self.edge_id,
        }

    def to_json_line(self) -> str:
        """``json.dumps(self.to_dict(), separators=(",", ":"))``, built
        directly.

        The keys come in :meth:`to_dict`'s order, each value in
        ``json.dumps``'s own encoding: strings quoted by
        ``encode_basestring_ascii``, enums as their values' literals,
        finite floats and ints by their ``__repr__``, ``None`` as
        ``null``.  A record holding any other value (a bool, a NaN or
        infinity, a subclass, a non-string in a string field) goes to
        ``json.dumps`` itself.
        """
        (timestamp, client_ip_hash, user_agent, method, domain, url,
         mime_type, status, response_bytes, cache_status, request_bytes,
         ttl_seconds, edge_id) = _field_values(self)
        if not (
            type(client_ip_hash) is type(domain) is type(url)
            is type(mime_type) is type(edge_id) is str
            and type(status) is type(response_bytes)
            is type(request_bytes) is int
            and type(timestamp) in _JSON_NUMBERS
            and timestamp - timestamp == 0  # finite
            and type(method) is HttpMethod
            and type(cache_status) is CacheStatus
            and (user_agent is None or type(user_agent) is str)
            and (ttl_seconds is None or type(ttl_seconds) in _JSON_NUMBERS
                 and ttl_seconds - ttl_seconds == 0)
        ):
            return json.dumps(self.to_dict(), separators=(",", ":"))
        return (
            f'{{"timestamp":{timestamp!r},'
            f'"client_ip_hash":{_quote(client_ip_hash)},'
            f'"user_agent":{"null" if user_agent is None else _quote(user_agent)},'
            f'"method":{_METHOD_LITERALS[method]},'
            f'"domain":{_quote(domain)},"url":{_quote(url)},'
            f'"mime_type":{_quote(mime_type)},"status":{status!r},'
            f'"response_bytes":{response_bytes!r},'
            f'"cache_status":{_CACHE_STATUS_LITERALS[cache_status]},'
            f'"request_bytes":{request_bytes!r},'
            f'"ttl_seconds":{"null" if ttl_seconds is None else repr(ttl_seconds)},'
            f'"edge_id":{_quote(edge_id)}}}'
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RequestLog":
        """Build a record from a decoded JSON object.

        This is the field contract of every log reader: each field
        must have its JSON type (see :data:`_CONTRACT`) and an enum
        field a known value, else ``ValueError`` names the field.
        Unknown keys are ignored; a missing optional field takes its
        default, a missing required one is an error.

        Once a field passes, it goes straight into its slot: the
        constructor's ``__post_init__`` enum coercions have nothing
        left to do, and its one other rule, an empty user agent read
        as ``None``, is applied here.
        """
        if type(data) is not dict and not isinstance(data, Mapping):
            raise ValueError(f"expected a JSON object, got {data!r:.40}")
        get = data.get
        record = _new_record(cls)
        for name, types, expected, default, members, set_slot in _CONTRACT:
            value = get(name, default)
            if type(value) not in types:
                if value is _REQUIRED:
                    raise ValueError(f"missing field {name!r}")
                raise ValueError(
                    f"field {name!r} must be {expected}, got {value!r:.40}"
                )
            if members is not None:
                member = members.get(value)
                if member is None:
                    raise ValueError(
                        f"field {name!r} has unknown value {value!r:.40}"
                    )
                value = member
            set_slot(record, value)
        if record.user_agent == "":
            _set_user_agent(record, None)
        return record

    # Pickle a record as the tuple of its field values; the dataclass
    # default walks ``fields()`` on every record.
    def __getstate__(self) -> Tuple[Any, ...]:
        return _field_values(self)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        for set_slot, value in zip(_SLOT_SETTERS, state):
            set_slot(self, value)


def media_type(mime_type: str) -> str:
    """The bare media type of a ``Content-Type`` value (see
    :attr:`RequestLog.content_type`)."""
    return mime_type.split(";", 1)[0].strip().lower()


def object_key(domain: str, url: str) -> str:
    """Canonical object identifier used across flow analyses.

    The paper identifies an object by its unique URL in the dataset;
    since our synthetic URLs are paths, we qualify them with the
    domain to keep objects of different customers distinct.
    """
    return f"{domain}{url}"


def client_key(client_ip_hash: str, user_agent: Optional[str]) -> str:
    """Canonical client identifier (§5.1: user agent + anonymized IP)."""
    return f"{client_ip_hash}|{user_agent or ''}"


#: Records per :class:`RecordChunk`.  A grouped fold holds one chunk
#: at a time, so this bounds its memory whatever the input's size.
CHUNK_SIZE = 1024


class RecordChunk:
    """A run of records plus the columns every grouped fold reads.

    Each record's content type, JSON flag, client id and object id is
    worked out once here, however many states fold the chunk.  The
    content type is split once per distinct mime type.
    """

    __slots__ = (
        "records", "content_types", "is_json", "client_ids", "object_ids",
    )

    def __init__(self, records: List[RequestLog]) -> None:
        self.records = records
        mime_types = [record.mime_type for record in records]
        bare = {mime: media_type(mime) for mime in set(mime_types)}
        self.content_types = [bare[mime] for mime in mime_types]
        self.is_json = [
            content_type == "application/json"
            for content_type in self.content_types
        ]
        # client_key's and object_key's formats, without a call per record.
        self.client_ids = [
            f"{record.client_ip_hash}|{record.user_agent or ''}"
            for record in records
        ]
        self.object_ids = [f"{record.domain}{record.url}" for record in records]


def record_chunks(records: Iterable[RequestLog]) -> Iterator[RecordChunk]:
    """``records`` as chunks of at most :data:`CHUNK_SIZE`, read lazily:
    a consumer that folds each chunk before asking for the next never
    holds more than one chunk of the input."""
    iterator = iter(records)
    while True:
        chunk = list(islice(iterator, CHUNK_SIZE))
        if not chunk:
            return
        yield RecordChunk(chunk)


_REQUIRED = object()  # default marker of a field the JSON must carry

_TEXT = ((str,), "a string")
_COUNT = ((int,), "an integer")  # exact type: a bool is no count
_NUMBER = ((float, int), "a number")

#: JSON type of each field; fields absent here take only strings.
_JSON_TYPES = {
    "timestamp": _NUMBER,
    "user_agent": ((str, type(None)), "a string or null"),
    "status": _COUNT,
    "response_bytes": _COUNT,
    "request_bytes": _COUNT,
    "ttl_seconds": ((float, int, type(None)), "a number or null"),
}

_ENUM_MEMBERS = {
    "method": {member.value: member for member in HttpMethod},
    "cache_status": {member.value: member for member in CacheStatus},
}

#: ``(name, accepted types, expected, JSON default, enum members, slot
#: setter)`` per field in constructor order: :meth:`RequestLog.from_dict`'s
#: contract, built once rather than per record.  The slot setter writes
#: past the frozen ``__setattr__``.
_CONTRACT: Tuple[
    Tuple[str, tuple, str, Any, Optional[dict], Callable[[Any, Any], None]], ...
] = tuple(
    (
        spec.name,
        *_JSON_TYPES.get(spec.name, _TEXT),
        _REQUIRED if spec.default is MISSING
        else getattr(spec.default, "value", spec.default),
        _ENUM_MEMBERS.get(spec.name),
        getattr(RequestLog, spec.name).__set__,
    )
    for spec in fields(RequestLog)
)

_new_record = object.__new__
_set_user_agent = RequestLog.user_agent.__set__
_SLOT_SETTERS = tuple(spec[-1] for spec in _CONTRACT)
_field_values = operator.attrgetter(*(spec[0] for spec in _CONTRACT))

# :meth:`RequestLog.to_json_line`'s encodings.
_quote = json.encoder.encode_basestring_ascii
_JSON_NUMBERS = (float, int)
_METHOD_LITERALS = {member: _quote(member.value) for member in HttpMethod}
_CACHE_STATUS_LITERALS = {member: _quote(member.value) for member in CacheStatus}
