"""The column cache: a table's parse, or a result derived from it, kept beside its inputs.

A parse's entry holds a datastore's columns; a derived entry holds what numpy
computed for a command, such as ``pca``'s factor table, as a materialized
view of its table.  Both are made, checked and kept by the one call
:func:`cached_result`, which keys on the inputs' bytes and on the modules
that make and read the entry (see :func:`_key_files`), and knows nothing of
tables: a caller that derives a result opens its own.  This module loads
neither the datastore nor the parser, so a command that reads a derived
result back loads only the cache and its own code.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
import sys
from array import array

# The column cache's directory, made beside the first input.
_CACHE_DIR = ".stagecost-cache"
_HASH_BLOCK = 1 << 16  # bytes of an input hashed at a time: a small, fixed buffer
# The modules whose bytes key every entry: the cache's, the cursor's and the parser's.
_PARSE_MODULES = ("colcache", "datastore", "csvload")
# The modules whose bytes also key a derived entry of each kind: those that
# derive, select and print it.
_DERIVED_MODULES = {"factors": ("pca", "factors", "pcacmd"), "fit": ("stats", "tablecmds")}


def _path_list(paths) -> list[str]:
    """A lone path or a sequence of them as a list of text paths, so that a
    message names a bytes path as it names the others."""
    return list(map(os.fsdecode, [paths] if isinstance(paths, (str, bytes, os.PathLike))
                    else paths))


def _floats(blobs: list, count: int) -> array | None:
    """An entry's one array, if it is ``count`` float64s, else None."""
    (flat,) = blobs
    return flat if memoryview(flat).format == "d" and len(flat) == count else None


def cached_result(paths, tag, kind, make, pack, unpack, inputs=None):
    """What ``make(inputs)`` gives, read back from the column cache when it
    holds it, and the input digests that it is made of, or None if unknown.

    ``paths`` is a lone path or a sequence of them.  An entry is the file
    ``_CACHE_DIR/<signature>`` in the first input's directory.  The
    signature is a sha256 of the absolute input paths in order, ``tag``
    (the set of columns asked for, or the name of a derived result, which
    no column selection can be), the interpreter's version and byte order
    and the bytes of the files :func:`_key_files` lists for ``kind``: None
    for a parse, ``"factors"`` or ``"fit"`` for a derived result.  So an
    edit to the rules retires every old entry.  ``pack(result)`` gives the
    entry's JSON fields and its arrays, and ``unpack(fields, arrays)`` makes
    the result of them again, or None if they disagree.

    The entry holds the sha256 of each input's bytes, which are hashed again
    on every open, unless the caller hashed them just now and passes them as
    ``inputs``; a caller must not pass the digests of an open that read an
    input while it changed.  An entry that is missing or fails a check is
    made anew and written again, once the inputs are seen to hash as they
    did before ``make`` ran.  A result that ``make`` does not return,
    because it raised, is not kept.  Inputs that are not all regular files,
    and an OSError on the cache, leave ``make(None)`` to give the result; so
    do inputs in this package's directory, such as the bundled samples,
    where an installed package is no place for an entry.
    """
    paths = _path_list(paths)
    if not paths:
        return make(None), None
    try:
        entry, key = _entry(paths, tag, kind)
        if _in_package(entry):
            inputs = None
        elif inputs is None:
            inputs = _input_digests(paths)
    except (OSError, ValueError):  # ValueError: a NUL in a path
        inputs = None
    if inputs is None:
        return make(None), None
    found = _read_entry(entry, key, inputs, unpack)
    if found is not None:
        return found, inputs
    made = make(inputs)
    try:
        if _input_digests(paths) != inputs:
            return made, None  # an input changed while it was read
    except OSError:
        return made, None  # or went away
    try:
        _write_entry(entry, key, inputs, *pack(made))
    except OSError:
        pass  # a read-only or full directory, or a file where the cache goes
    return made, inputs


def _key_files(kind: str | None = None) -> list[str]:
    """The files whose bytes key an entry of ``kind``: None for a parse,
    ``"factors"`` for pca's factor table, ``"fit"`` for a least-squares fit.

    Every entry is keyed on this module, ``datastore`` and ``csvload``, which
    write, read and parse it.  A derived entry is also keyed on the modules
    that derive, select and print it, and on numpy's ``version.py``, found
    without importing numpy, so a new numpy never reads an old entry.
    """
    here = os.path.dirname(__file__)
    names = _PARSE_MODULES if kind is None else _PARSE_MODULES + _DERIVED_MODULES[kind]
    files = [os.path.join(here, f"{name}.py") for name in names]
    if kind is not None:
        from importlib.util import find_spec

        files.append(os.path.join(os.path.dirname(find_spec("numpy").origin), "version.py"))
    return files


def _entry(paths, tag, kind=None) -> tuple[str, str]:
    """The cache entry for ``tag`` made of ``paths``, and its signature."""
    absolute = list(map(os.path.abspath, paths))
    signature = hashlib.sha256(json.dumps([absolute, tag, sys.version, sys.byteorder]).encode())
    for source in _key_files(kind):
        with open(source, "rb") as fh:
            signature.update(fh.read())
    key = signature.hexdigest()
    return os.path.join(os.path.dirname(absolute[0]), _CACHE_DIR, key), key


def _in_package(entry: str) -> bool:
    """Whether the cache entry ``entry`` would be made inside this package's directory."""
    package = os.path.join(os.path.realpath(os.path.dirname(__file__)), "")
    return os.path.realpath(entry).startswith(package)


def _input_digests(paths) -> list[str] | None:
    """The sha256 of each input's bytes, or None if an input is not a regular file."""
    buffer = bytearray(_HASH_BLOCK)
    digests = []
    for path in paths:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
        digest = hashlib.sha256()
        with open(path, "rb", buffering=0) as fh:
            while size := fh.readinto(buffer):
                digest.update(memoryview(buffer)[:size])
        digests.append(digest.hexdigest())
    return digests


def _write_entry(entry: str, key: str, inputs: list[str], fields: dict, blobs: list) -> None:
    """Keep ``fields`` and the arrays ``blobs``, made of inputs whose digests are ``inputs``.

    The entry is one line of JSON (the signature, the input digests,
    ``fields``, and the type code and byte length of each array), then each
    array as raw bytes, then a sha256 of all that.  It is written to a file
    of its own and moved into place, so a reader finds a whole entry or none.
    """
    views = list(map(memoryview, blobs))
    head = json.dumps({
        "signature": key, "inputs": inputs, **fields,
        "types": [view.format for view in views], "lengths": [view.nbytes for view in views],
    }).encode() + b"\n"
    os.makedirs(os.path.dirname(entry), exist_ok=True)
    temp = f"{entry}.{os.getpid()}-{os.urandom(4).hex()}"
    fh = open(temp, "xb")
    try:
        with fh:
            digest = hashlib.sha256(head)
            fh.write(head)
            for view in views:
                fh.write(view)
                digest.update(view)
            fh.write(digest.digest())
        os.replace(temp, entry)
    except BaseException:
        try:
            os.unlink(temp)
        except OSError:
            pass
        raise


def _read_entry(entry: str, key: str, inputs: list[str], unpack):
    """``unpack(fields, arrays)`` of the entry ``entry``, or None if there is
    none, it fails a check or ``unpack`` gives None.

    The checks: the signature and the input digests that the entry was
    written for, the byte lengths against the file's size, and the sha256
    over the whole entry.  An array of type ``B`` comes back as a
    ``bytearray``, any other as an ``array`` of that type, each read
    straight into its final place.
    """
    try:
        with open(entry, "rb") as fh:
            line = fh.readline()
            head = json.loads(line)
            if head["signature"] != key or head["inputs"] != inputs:
                return None
            lengths = head["lengths"]
            if (min(lengths, default=0) < 0
                    or len(line) + sum(lengths) + 32 != os.fstat(fh.fileno()).st_size):
                return None
            digest = hashlib.sha256(line)
            blobs = []
            for code, length in zip(head["types"], lengths, strict=True):
                blob = (bytearray(length) if code == "B"
                        else array(code, [0]) * (length // array(code).itemsize))
                if memoryview(blob).nbytes != length or fh.readinto(blob) != length:
                    return None
                digest.update(blob)
                blobs.append(blob)
            if fh.read() != digest.digest():
                return None
            return unpack(head, blobs)
    except (OSError, ValueError, LookupError, TypeError):
        return None
