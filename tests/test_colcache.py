"""The column cache, tested by its contract: a command prints what it prints with no cache.

A state machine runs the table commands in-process over two small tables,
while other steps change the tables, the cache directory and the key under
them.  After every command it checks the output against the same command
with the cache out of reach, the parses, fits, factorings and jobs made
against a model of the entries, and the cache directory against the
model's entries.
A new entry kind, or a new way to change its inputs, is a new rule here.

The tests after the machine check each entry kind where the machine only
samples or cannot see: every byte of an entry flipped and every truncation,
entries rewritten with a matching sha256 but the wrong shape, an edit at the
same size and mtime, a table edited under its parse, the hashes a hit and a
miss make, each file that keys every entry, the error texts of failing
commands, and writes and inputs that fail.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest
from _oracles import cache_out_of_reach, everything
from conftest import Makers
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule
from hypothesis.stateful import run_state_machine_as_test

from stagecost import colcache, csvload, mapreduce, pca, pcacmd, stats, tablecmds
from stagecost.cli import dispatch
from stagecost.datastore import Datastore
from stagecost.errors import DomainError, MalformedCSV, ToolkitError
from stagecost.report import DELAY_COLUMNS

_CHANGED = "an input file changed while it was read"


def _run(argv, output=None):
    """The exit status, stdout and stderr of a command run in-process, and the
    bytes it wrote to ``output`` (None if it wrote none)."""
    if output is not None:
        output.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = dispatch(argv)
    written = output.read_bytes() if output is not None and output.exists() else None
    return status, out.getvalue(), err.getvalue(), written


def _job(name: str, key: str | None = None, column: str | None = None) -> tuple[list, str]:
    """The command and the tag of the mapreduce job ``name`` on ``key`` and ``column``."""
    argv = ["mapreduce", "run", "--job", name, *(["--key", key] if key is not None else []),
            *(["--column", column] if column is not None else [])]
    return argv, tablecmds._fit_tag(name, [column] if name == "max" else [key, column])


# -- the state machine -----------------------------------------------------------------

_KEYS = st.sampled_from(["1", "2.50", " 3 ", "a", "NA"])  # "a" after a number: text late
_NUMBERS = st.integers(-2, 99).map(lambda v: {-2: "NA", -1: "w"}.get(v, str(v)))
_ROW = st.tuples(_KEYS, _NUMBERS, _NUMBERS, _NUMBERS).map(",".join)
_ROWS = st.lists(_ROW, min_size=1, max_size=3)
_TABLE_ROWS = st.lists(_ROW, min_size=4, max_size=8)  # enough rows for a regress on x and z
# What a step does to an input's bytes: append or insert rows, write other
# rows, edit one digit (at the same size), go back to bytes it held before,
# drop the last row.
_CHANGES = (st.tuples(st.sampled_from(["append", "insert"]), _ROWS)
            | st.tuples(st.just("rewrite"), _TABLE_ROWS)
            | st.tuples(st.sampled_from(["digit", "revert"]), st.integers(0, 999))
            | st.tuples(st.just("drop"), st.none()))
_FILES = st.sampled_from(["a.csv", "b.csv"])


def _table(rows) -> bytes:
    return "".join(f"{line}\n" for line in ["k,y,x,z", *rows]).encode()


def _changed(data: bytes, history: list, change) -> bytes:
    """``data`` after ``change``; ``history`` holds the file's earlier bytes."""
    kind, arg = change
    if kind in ("append", "insert"):  # after the last row, or the header
        rows = _table(arg).partition(b"\n")[2]
        return data + rows if kind == "append" else data.replace(b"\n", b"\n" + rows, 1)
    if kind == "rewrite":
        return _table(arg)
    if kind == "revert":
        return history[arg % len(history)]
    if kind == "drop":
        return data[:data.rindex(b"\n", 0, -1) + 1] if data.count(b"\n") > 1 else data
    digits = [at for at, byte in enumerate(data) if chr(byte).isdigit()]
    if not digits:
        return data
    at = digits[arg % len(digits)]
    return data[:at] + str((int(chr(data[at])) + 1) % 10).encode() + data[at + 1:]


def _write_in_place(path, data: bytes) -> None:
    """Rewrite ``path`` through its own inode and give it back its times."""
    stamp = os.stat(path)
    Path(path).write_bytes(data)
    os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))


class _Edit:
    """A change to an input made at a point of the next parse that reads the input:
    as the parse starts to ``read``, ``between blocks`` or before a text ``reread``."""

    def __init__(self, path: str, data: bytes, point: str):
        self.path, self.data, self.point = path, data, point
        self.reads = 0  # the input's row readers started
        self.done = False

    def reach(self, point: str, path: str) -> None:
        if (point, path) == (self.point, self.path) and not self.done:
            self.done = True
            _write_in_place(path, self.data)


def _edit_points(monkeypatch, armed: list) -> None:
    """Wrap the parser so that ``armed[0]``, an _Edit or None, happens where it says."""
    load, row_blocks = csvload._load, csvload._row_blocks

    def edited_load(paths, *args):
        for path in paths if armed[0] else ():
            armed[0].reach("read", path)
        return load(paths, *args)

    def edited_row_blocks(path):
        edit = armed[0]
        if edit is None or edit.path != path:
            yield from row_blocks(path)
            return
        edit.reads += 1
        if edit.reads > 1:
            edit.reach("reread", path)
        for at, item in enumerate(row_blocks(path)):
            yield item
            if at:  # the header and the first block are read
                edit.reach("between blocks", path)

    monkeypatch.setattr(csvload, "_load", edited_load)
    monkeypatch.setattr(csvload, "_row_blocks", edited_row_blocks)


@lru_cache(maxsize=None)
def _entry_name(paths: tuple, tag: str) -> str:
    return os.path.basename(colcache._entry(list(paths), json.loads(tag))[0])


class CacheMachine(RuleBasedStateMachine):
    """Table commands against a model of the column cache's entries.

    The model maps each entry file to what was written there: the entry's
    name, the key's generation and the bytes of its inputs, or "damaged".
    An entry is a hit only if that is its own name and the current key and
    bytes.  A miss writes the entry if its result is made, unless an input
    changed while the command read it.
    """

    def __init__(self, directory: Path, keyed: dict, makers: Makers, armed: list):
        super().__init__()
        self.dir, self.keyed, self.makers, self.armed = directory, keyed, makers, armed
        self.cache, self.output = directory / colcache._CACHE_DIR, directory / "plot.tsv"

    @initialize(a=_TABLE_ROWS, b=_TABLE_ROWS | st.just([]))
    def start(self, a, b):
        # one directory for every example: an entry's name hashes its absolute paths
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir()
        for copy, source in self.keyed.items():
            shutil.copyfile(source, copy)
        self.generation = 0  # of the key: each change to it adds one
        sys.version = sys.version.partition(" [build")[0]
        self.entries, self.files, self.history, self.edit = {}, {}, {}, None
        for name, rows in (("a.csv", a), ("b.csv", b)):
            path = str(self.dir / name)
            self.files[path], self.history[path] = _table(rows), [_table(rows)]
            Path(path).write_bytes(_table(rows))

    # -- the model --------------------------------------------------------------

    def _hit(self, paths, tag, changed: bool, made) -> bool:
        """Whether the entry of ``tag`` on ``paths`` is a hit; on a miss, the model
        keeps the entry if ``made()`` says its result was made."""
        name = _entry_name(tuple(paths), json.dumps(tag))
        written = (name, self.generation, tuple(map(self.files.__getitem__, paths)))
        if self.entries.get(name) == written:
            return True
        if not changed and made():
            self.entries[name] = written
        return False

    def _parse(self, paths, columns, changed: bool) -> dict:
        """The parses of an open: a miss writes its entry if the open succeeds."""
        def opens():
            with cache_out_of_reach():
                try:
                    Datastore(paths, columns=columns)
                except ToolkitError:
                    return False
            return True

        tag = None if columns is None else sorted(set(columns))
        return {} if self._hit(paths, tag, changed, opens) else {"parse": 1}

    def _derived(self, paths, tag, columns, maker, ref, changed) -> dict:
        """The calls of a command that looks its result up before it opens its table."""
        if self._hit(paths, tag, changed, lambda: maker in ref[2]):
            return {}
        return {**self._parse(paths, columns, changed),
                **{name: n for name, n in ref[1].items() if name == maker}}

    def _plot(self, paths, names, ref, changed) -> dict:
        """plotdata --fit: it opens its table first, and looks its line up only
        under known digests, once its columns are numbers."""
        made = self._parse(paths, names, changed)
        if "line" in ref[1] and (changed or not self._hit(
                paths, tablecmds._fit_tag("plotdata", names), changed,
                lambda: "line" in ref[2])):
            made["line"] = 1
        return made

    # -- the commands -------------------------------------------------------------

    def _check(self, run, predict, error=(1, "", f"error: {_CHANGED}\n", None)) -> None:
        """Run ``run`` with the cache out of reach, then through it, and check the
        output and the makers' calls; ``error`` is its output when an input
        changed while it was read."""
        with cache_out_of_reach():
            reference = self.makers.during(run)
        self.armed[0], edit = self.edit, self.edit
        try:
            got, calls, _ = self.makers.during(run)
        finally:
            self.armed[0] = self.edit = None
        if edit is None or not edit.done or edit.data == self.files[edit.path]:
            assert got == reference[0]
            assert calls == predict(reference, False)
            if edit is not None and not edit.done:  # no parse read the input: it changes now
                self._write(edit.path, edit.data, "in place")
            return
        # the output of either version, or the error; and no entry is written
        with cache_out_of_reach():
            new = self.makers.during(run)
        assert (got, calls) in [(ref[0], predict(ref, True))
                                for ref in (reference, new, (error, {}, {}))]
        self.files[edit.path] = edit.data
        self.history[edit.path].append(edit.data)

    def _paths(self, *files) -> list:
        return [str(self.dir / name) for name in files]

    @rule(file=_FILES, names=st.sampled_from([["y", "x", "z"], ["y", "z", "x"],
                                               ["y", "x", "x"]]))
    def run_regress(self, file, names):
        paths = self._paths(file)
        tag = tablecmds._fit_tag("regress", names)
        self._check(lambda: _run(["regress", "--input", *paths, "--dependent", names[0],
                                  "--independents", *names[1:]]),
                    lambda ref, changed: self._derived(paths, tag, names, "fit", ref, changed))

    @rule(file=_FILES, threshold=st.sampled_from(["0.5", "0.9"]))
    def run_pca(self, file, threshold):
        paths = self._paths(file)
        self._check(lambda: _run(["pca", "--input", *paths, "--threshold", threshold]),
                    lambda ref, changed: self._derived(paths, pcacmd._FACTORS, None,
                                                       "factoring", ref, changed))

    @rule(file=_FILES, axes=st.sampled_from([["x", "y"], ["z", "x"]]))
    def run_plotdata(self, file, axes):
        paths = self._paths(file)
        self._check(lambda: _run(["plotdata", "--input", *paths, "--x", axes[0], "--y",
                                  axes[1], "--fit", "--output", str(self.output)], self.output),
                    lambda ref, changed: self._plot(paths, axes, ref, changed))

    # a job's entry is shared by every chunk size, which changes only the progress lines
    @rule(chunk_size=st.integers(1, 4))
    def run_keycount(self, chunk_size):
        paths = self._paths("a.csv", "b.csv")
        argv, tag = _job("keycount", key="k")
        self._check(lambda: _run([*argv, "--chunk-size", str(chunk_size), "--input", *paths]),
                    lambda ref, changed: self._derived(paths, tag, ["k"], "job", ref, changed))

    @rule(file=_FILES, column=st.sampled_from(["k", "y"]), chunk_size=st.integers(1, 4))
    def run_max(self, file, column, chunk_size):
        paths = self._paths(file)
        argv, tag = _job("max", column=column)
        self._check(lambda: _run([*argv, "--chunk-size", str(chunk_size), "--input", *paths]),
                    lambda ref, changed: self._derived(paths, tag, [column], "job", ref, changed))

    @rule(files=st.sampled_from([["a.csv"], ["b.csv"], ["a.csv", "b.csv"]]),
          columns=st.sampled_from([None, ["k"], ["x", "y"], ["y", "x", "x"], ["k", "nope"], []]),
          chunk_size=st.integers(1, 4))
    def open_a_datastore(self, files, columns, chunk_size):
        paths = self._paths(*files)
        self._check(lambda: everything(paths, chunk_size, columns),
                    lambda ref, changed: self._parse(paths, columns, changed),
                    (MalformedCSV, _CHANGED))

    # -- changing the world under the cache -----------------------------------------

    def _write(self, path: str, data: bytes, how: str) -> None:
        if how == "in place":
            _write_in_place(path, data)
        else:
            Path(path + ".new").write_bytes(data)
            os.replace(path + ".new", path)
        self.files[path] = data
        self.history[path].append(data)

    @rule(file=_FILES, change=_CHANGES, how=st.sampled_from(["in place", "os.replace"]))
    def change_an_input(self, file, change, how):
        (path,) = self._paths(file)
        self._write(path, _changed(self.files[path], self.history[path], change), how)

    # mostly a writer that inserts rows, which leaves a reader past the first
    # block a mix of the two versions
    @rule(file=_FILES, change=_CHANGES | st.tuples(st.just("insert"), _ROWS),
          point=st.sampled_from(["read", "between blocks", "reread"]))
    def change_an_input_during_the_next_parse(self, file, change, point):
        if self.edit is not None:  # an edit armed before is made now
            self._write(self.edit.path, self.edit.data, "in place")
        (path,) = self._paths(file)
        data = _changed(self.files[path], self.history[path], change)
        self.edit = None if data == self.files[path] else _Edit(path, data, point)

    def _entry_file(self, at: int) -> Path | None:
        names = sorted(self.entries)
        return self.cache / names[at % len(names)] if names else None

    @rule(at=st.integers(0, 10**4), truncate=st.booleans())
    def damage_an_entry(self, at, truncate):
        entry = self._entry_file(at)
        data = b"" if entry is None else entry.read_bytes()
        if data:  # an entry, and not one truncated to nothing
            at %= len(data)
            entry.write_bytes(data[:at] + (b"" if truncate else
                                           bytes([data[at] ^ 1]) + data[at + 1:]))
            self.entries[entry.name] = "damaged"

    @rule(source=st.integers(0, 99), over=st.integers(0, 99))
    def copy_an_entry_over_another(self, source, over):
        source, over = self._entry_file(source), self._entry_file(over)
        if source != over:
            shutil.copyfile(source, over)
            self.entries[over.name] = self.entries[source.name]

    @rule()
    def remove_the_cache(self):
        shutil.rmtree(self.cache, ignore_errors=True)
        self.entries.clear()

    @rule(at=st.integers(0, 99))
    def edit_a_file_that_keys_the_entries(self, at):
        with open(sorted(self.keyed)[at % len(self.keyed)], "ab") as fh:
            fh.write(b"\n")
        self.generation += 1

    @rule()
    def change_the_interpreter(self):
        self.generation += 1
        sys.version = f"{sys.version.partition(' [build')[0]} [build {self.generation}]"

    @invariant()
    def the_cache_holds_the_entries_of_the_model(self):
        found = os.listdir(self.cache) if self.cache.exists() else []
        assert sorted(found) == sorted(self.entries)  # and no temporary file


def test_every_command_prints_what_it_prints_with_no_cache(monkeypatch, tmp_path, makers):
    monkeypatch.setattr(csvload, "_BLOCK_ROWS", 2)  # a column can turn text after a block
    monkeypatch.setattr(sys, "version", sys.version)  # the machine changes it
    armed = [None]
    _edit_points(monkeypatch, armed)
    # the key is made of copies of its files, so that a copy can be edited
    keyed = {str(tmp_path / f"{i:02}-{Path(source).name}"): source
             for i, source in enumerate(colcache._key_files())}
    monkeypatch.setattr(colcache, "_key_files", lambda: list(keyed))
    run_state_machine_as_test(
        lambda: CacheMachine(tmp_path / "tables", keyed, makers, armed),
        # tier-1's 200 examples, or more under a profile that asks for more
        settings=settings(max_examples=max(200, settings.default.max_examples),
                          stateful_step_count=40, deadline=None,
                          database=None, derandomize=True,
                          suppress_health_check=list(HealthCheck),
                          # explaining a failure traces every line of every replay:
                          # minutes and hundreds of MB, where the shrunk steps say enough
                          phases=set(Phase) - {Phase.explain}))


# -- a job's answer at any chunk size ----------------------------------------------------

# A text key, and a numeric key where 0 and -0 are one key and a whole float
# from 1e15 on is named by its repr; every cell of ``gone`` is missing, so no
# key survives a job on it.
_JOB_ROW = st.tuples(st.sampled_from(["a", "b c", " a ", "NA"]),
                     st.sampled_from(["0", "-0", "0.0", "1e15", "1000000000000001", "2.5", "NA"]),
                     st.sampled_from(["0", "-0", "1.5", "-2", "NA"]))
_JOBS = [_job("keycount", key="t"), _job("keycount", key="n", column="v"),
         _job("keycount", key="t", column="gone"), _job("max", column="v"),
         _job("max", column="n"), _job("max", column="gone")]


@settings(max_examples=40, deadline=None, database=None, derandomize=True,
          suppress_health_check=list(HealthCheck))
@given(rows=st.lists(_JOB_ROW, min_size=1, max_size=6), data=st.data())
def test_a_job_read_back_prints_what_its_fold_prints_at_any_chunk_size(tmp_path, makers, rows,
                                                                       data):
    # the chunk size is not in a job's key: a job folded at one size and read
    # back at another prints the progress lines and the answer of a fold at
    # the second, the first of equal maxima included
    path = tmp_path / "t.csv"
    path.write_text("t,n,v,gone\n" + "".join(f"{t},{n},{v},NA\n" for t, n, v in rows))
    sizes = st.integers(1, len(rows) + 1)
    for argv, tag in _JOBS:
        a, b = data.draw(st.tuples(sizes, sizes), label=" ".join(argv[3:]))

        def at(size):
            return lambda: _run([*argv, "--chunk-size", str(size), "--input", str(path)])

        with cache_out_of_reach():
            folded = at(b)()
        _entry_of(path, tag).unlink(missing_ok=True)
        assert makers.during(at(a))[1].get("job") == 1
        assert makers.during(at(b))[:2] == (folded, {})


# -- what the machine samples or cannot see ---------------------------------------------

# Each entry kind: the table it is made of, the command that keeps it (None: an
# open on the tag's columns), its tag, and the maker whose calls count its misses.
_FIT_TABLE = "k,y,x,z\na,1,2,3\nb,2,5,1\na,4,4,4\nb,3,9,2\n"
_KINDS = {
    "parse": ("k,x,y\na,1,NA\nb,NA,2\nword,3,4\n", None, ["k", "x"], "parse"),
    "factors": (_FIT_TABLE, ["pca"], pcacmd._FACTORS, "factoring"),
    "regress": (_FIT_TABLE, ["regress", "--dependent", "y", "--independents", "x", "z"],
                tablecmds._fit_tag("regress", ["y", "x", "z"]), "fit"),
    "plotdata": (_FIT_TABLE, ["plotdata", "--x", "x", "--y", "y", "--fit"],
                 tablecmds._fit_tag("plotdata", ["x", "y"]), "line"),
    "job": (_FIT_TABLE, *_job("keycount", key="y"), "job"),
    # a delay summary is the answer of a fold too; the edit is to a SendingDelay
    "delays": ("UniqueCarrier,ServerNum,SendingDelay,ReceivingDelay,Origin\n"
               "S1,2,1,3,C1\nS2,3,4,-0,C2\nS1,4,6,0,C1\n", ["delays"],
               tablecmds._fit_tag("delays", DELAY_COLUMNS), "job"),
}


def _entry_of(path, tag) -> Path:
    """Where the column cache keeps the entry of ``tag`` on the table ``path``."""
    return Path(colcache._entry([str(path)], tag)[0])


def _kind(tmp_path, kind):
    """A run that keeps an entry of ``kind`` on a new table, where the entry
    is, and the maker whose calls count its misses."""
    text, argv, tag, maker = _KINDS[kind]
    path = tmp_path / "t.csv"
    path.write_text(text)

    def run():
        return everything(path, 100, tag) if argv is None else _run([*argv, "--input", str(path)])

    return run, _entry_of(path, tag), maker


def _every_damage_is_a_miss(tmp_path, makers, kind, damage) -> None:
    """Each entry of ``kind`` that ``damage(whole)`` gives of the whole one is a
    miss that makes the result again and writes the whole entry again."""
    run, entry, maker = _kind(tmp_path, kind)
    want = run()
    whole = entry.read_bytes()
    for damaged in damage(whole):
        entry.write_bytes(damaged)
        assert makers.during(run)[:2] == (want, {maker: 1})
        assert entry.read_bytes() == whole


@pytest.mark.parametrize("kind", list(_KINDS))
def test_every_flipped_byte_of_an_entry_is_a_miss_that_writes_it_again(tmp_path, makers, kind):
    _every_damage_is_a_miss(tmp_path, makers, kind, lambda whole: (
        whole[:at] + bytes([whole[at] ^ 1]) + whole[at + 1:] for at in range(len(whole))))


@pytest.mark.parametrize("kind", list(_KINDS))
def test_a_truncated_or_foreign_entry_is_a_miss(tmp_path, makers, kind):
    path = tmp_path / "t.csv"

    def truncated_or_foreign(whole):
        yield from (whole[:cut] for cut in range(len(whole)))
        everything(path, 100, ["y"])  # another selection's parse entry, valid in itself
        yield _entry_of(path, ["y"]).read_bytes()

    _every_damage_is_a_miss(tmp_path, makers, kind, truncated_or_foreign)


def _reshaped(change: str, whole: bytes) -> bytes:
    """An entry after ``change`` to its head or arrays, with its sha256 made to match."""
    line, _, rest = whole.partition(b"\n")
    head, payload = json.loads(line), rest[:-32]
    if change == "a word short":
        head["words"][0].pop()
    elif change == "a row short":
        head["rows"] -= 1
    elif change == "a column short":
        for field in ("names", "kinds", "words"):
            del head[field][1]
    elif change == "an array of no whole number of items":
        # a byte moved from a column's flags to its text codes: the entry's
        # size still matches, but 13 bytes are no whole number of 4-byte codes
        assert head["types"][:2] == ["I", "B"]
        head["lengths"][0] += 1
        head["lengths"][1] -= 1
    else:  # the last item of the array dropped: 8 bytes, a float or a count
        head["lengths"][0] -= 8
        payload = payload[:-8]
    line = json.dumps(head).encode() + b"\n"
    return line + payload + hashlib.sha256(line + payload).digest()


@pytest.mark.parametrize("kind, change", [
    ("parse", "a word short"), ("parse", "a row short"), ("parse", "a column short"),
    ("parse", "an array of no whole number of items"), ("factors", "a float short"),
    ("regress", "a float short"), ("plotdata", "a float short"), ("job", "a count short"),
    ("delays", "a float short"),
])
def test_an_entry_that_disagrees_with_itself_is_a_miss(tmp_path, makers, kind, change):
    # an entry rewritten with its sha256 to match, as a writer with another
    # bug would leave it: the digest alone does not let it through
    _every_damage_is_a_miss(tmp_path, makers, kind, lambda whole: [_reshaped(change, whole)])


def _edited(path) -> bytes:
    """The table ``path`` with a number in its first row changed, at the same size."""
    data = path.read_bytes()
    assert b",1," in data
    return data.replace(b",1,", b",7,", 1)


@pytest.mark.parametrize("kind", list(_KINDS))
def test_an_edit_that_keeps_size_and_mtime_is_a_miss(tmp_path, makers, kind):
    run, _, maker = _kind(tmp_path, kind)
    path = tmp_path / "t.csv"
    first = run()
    stamp = path.stat()
    _write_in_place(path, _edited(path))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stamp.st_size, stamp.st_mtime_ns)
    got, calls, _ = makers.during(run)
    assert calls == {"parse": 1, maker: 1}
    assert got != first
    with cache_out_of_reach():
        assert run() == got


@pytest.mark.parametrize("kind", list(_KINDS))
def test_a_table_edited_while_it_is_parsed_keeps_no_entry(monkeypatch, tmp_path, makers, kind):
    # the columns are of the old bytes: the command fails and keeps nothing,
    # and the next run makes the result of the edited table
    run, _, maker = _kind(tmp_path, kind)
    path = tmp_path / "t.csv"
    edited = _edited(path)
    load = csvload._load

    def load_then_edit(*args):
        loaded = load(*args)
        path.write_bytes(edited)
        return loaded

    monkeypatch.setattr(csvload, "_load", load_then_edit)
    assert run() == ((MalformedCSV, _CHANGED) if kind == "parse"
                     else (1, "", f"error: {_CHANGED}\n", None))
    assert not (tmp_path / colcache._CACHE_DIR).exists()
    monkeypatch.setattr(csvload, "_load", load)
    with cache_out_of_reach():
        want = run()
    assert makers.during(run)[:2] == (want, {"parse": 1, maker: 1})
    assert makers.during(run)[:2] == (want, {})


@pytest.mark.parametrize("kind", ["factors", "regress", "plotdata", "job", "delays"])
def test_a_hit_hashes_the_table_once_and_a_miss_once_more_than_an_open(monkeypatch, tmp_path,
                                                                       makers, kind):
    hashes = [0]
    digests = colcache._input_digests

    def counting_digests(paths):
        hashes[0] += 1
        return digests(paths)

    monkeypatch.setattr(colcache, "_input_digests", counting_digests)
    run, entry, maker = _kind(tmp_path, kind)

    def hashed():
        """The run's output, its makers' calls and the hashes of the table it made."""
        before = hashes[0]
        got, calls, _ = makers.during(run)
        return got, calls, hashes[0] - before

    # an open that parses hashes twice, and the derived result once more
    want, calls, hashes_made = hashed()
    assert (calls, hashes_made) == ({"parse": 1, maker: 1}, 3)
    assert hashed() == (want, {}, 1)
    entry.unlink()
    assert hashed() == (want, {maker: 1}, 2)  # the columns are read back


def test_every_entry_is_keyed_on_the_package_modules_and_on_numpy():
    # one list for every entry kind: each module of the package, in name
    # order, and numpy's version.py, found without importing numpy
    import numpy

    package = Path(colcache.__file__).parent
    *modules, version = colcache._key_files()
    assert modules == sorted(str(path) for path in package.glob("*.py"))
    assert {"colcache.py", "csvload.py", "pcacmd.py", "stats.py"} <= {Path(m).name for m in modules}
    assert Path(version) == Path(numpy.__file__).parent / "version.py"
    assert numpy.__version__ in Path(version).read_text()


# every entry kind of one table: each derived result with its parse
_EVERY_KIND = [argv for text, argv, _, _ in _KINDS.values() if text == _FIT_TABLE]
_EVERY_ENTRY_MISSES = [{"parse": 1, maker: 1} for text, _, _, maker in _KINDS.values()
                       if text == _FIT_TABLE]


def _rounds(tmp_path, makers):
    """A function that runs a command of every entry kind on a new table: what
    each printed, the makers' calls, and the cache directory's file names."""
    path = tmp_path / "t.csv"
    path.write_text(_FIT_TABLE)

    def round_():
        runs = [makers.during(lambda: _run([*argv, "--input", str(path)])) for argv in _EVERY_KIND]
        return ([got for got, _, _ in runs], [calls for _, calls, _ in runs],
                sorted(os.listdir(tmp_path / colcache._CACHE_DIR)))

    return round_


@pytest.mark.parametrize("edited", [Path(f).name for f in colcache._key_files()])
def test_an_edit_to_a_file_that_keys_the_entries_replaces_every_entry(monkeypatch, tmp_path,
                                                                      makers, edited):
    # every key file, where the machine edits one it draws: a byte appended
    # to a copy of it makes the next round on the unchanged table miss every
    # entry, print the same, and write each new entry over the old one
    copies = tmp_path / "keyed"
    copies.mkdir()
    keyed = [str(copies / Path(source).name) for source in colcache._key_files()]
    for source, copy in zip(colcache._key_files(), keyed):
        shutil.copyfile(source, copy)
    monkeypatch.setattr(colcache, "_key_files", lambda: keyed)
    round_ = _rounds(tmp_path, makers)
    outputs, _, names = round_()
    assert len(names) == 8  # four parses, a factor table, two fits and a job's answer
    with open(copies / edited, "ab") as fh:
        fh.write(b"\n")
    assert round_() == (outputs, _EVERY_ENTRY_MISSES, names)
    assert round_() == (outputs, [{}] * 4, names)


def test_a_new_interpreter_makes_every_entry_miss_and_rewrites_it_in_place(monkeypatch, tmp_path,
                                                                           makers):
    round_ = _rounds(tmp_path, makers)
    outputs, _, names = round_()

    def heads():  # each entry's JSON head, which holds its signature
        return [(tmp_path / colcache._CACHE_DIR / name).read_bytes().partition(b"\n")[0]
                for name in names]

    old = heads()
    monkeypatch.setattr(sys, "version", sys.version + " (another build)")
    assert round_() == (outputs, _EVERY_ENTRY_MISSES, names)
    assert all(map(bytes.__ne__, heads(), old))
    assert round_() == (outputs, [{}] * 4, names)


# -- commands that fail -----------------------------------------------------------------

_PCA = (["pca"], pcacmd._FACTORS)
_FAILING = "y,x,z,c,gap,t\n1,2,3,5,1,a\n2,4,1,5,NA,b\n3,1,2,5,4,c\n5,3,3,5,2,d\n"


def _fit(kind, names) -> tuple[list, str]:
    """The command and the tag of regress of names[0] on the rest, or of
    plotdata --fit of y = names[1] on x = names[0]."""
    argv = (["regress", "--dependent", names[0], "--independents", *names[1:]]
            if kind == "regress" else ["plotdata", "--x", names[0], "--y", names[1], "--fit"])
    return argv, tablecmds._fit_tag(kind, names)


# Tables that pca cannot factor, and the error of each.
_UNFACTORABLE = [("a,b\nx,y\nz,w\n", "input has no numeric columns"),
                 ("a,b\n1,2\n2,NA\n3,5\n", "column 'b' has missing cells"),
                 ("x,flat\n1,0.1\n2,0.1\n4,0.1\n", "column 'flat' has zero variance")]


@pytest.mark.parametrize("text, command, error", [
    *((text, _PCA, error) for text, error in _UNFACTORABLE),
    ("a,b\n1,2\n2,5\n3,4\n", (["pca", "--threshold", "0"], pcacmd._FACTORS),
     "variance_threshold must be in (0, 1], got 0.0"),
    ("a,b\n1,2\n2,5\n3,4\n", (["pca", "--cutoff", "1.5"], pcacmd._FACTORS),
     "loading_cutoff must be in (0, 1], got 1.5"),
    # a table's own error comes before a bad option's
    *((text, (["pca", *options], pcacmd._FACTORS), error) for text, error in _UNFACTORABLE
      for options in [("--threshold", "0"), ("--cutoff", "2"),
                      ("--threshold", "0", "--cutoff", "2")]),
    (_FAILING, _fit("regress", ["y", "gap"]), "column 'gap' has missing cells"),
    (_FAILING, _fit("regress", ["y", "t"]), "column 't' is not numeric"),
    (_FAILING, _fit("regress", ["y", "x", "x"]),
     "predictor 2 lies in the span of the columns before it"),
    (_FAILING, _fit("regress", ["y", "x", "z", "c"]),
     "need at least 5 rows for 3 predictors, got 4"),
    (_FAILING, _fit("plotdata", ["gap", "y"]), "column 'gap' has missing cells"),
    (_FAILING, _fit("plotdata", ["t", "y"]), "column 't' is not numeric"),
    (_FAILING, _fit("plotdata", ["c", "y"]),
     "predictor 1 lies in the span of the columns before it"),
    ("y,x\n1,2\n", _fit("plotdata", ["x", "y"]), "need at least 2 rows for 1 predictors, got 1"),
    ("y,x\n1,2\n2,3\n3,4\n4\n", _fit("regress", ["y", "x"]), "t.csv:5: expected 2 cells, got 1"),
], ids=["text-only", "missing-cell", "constant-column", "bad-threshold", "bad-cutoff",
        *(f"{table}-{option}" for table in ["text-only", "missing-cell", "constant-column"]
          for option in ["bad-threshold", "bad-cutoff", "bad-both"]),
        "fit-missing-cell", "fit-text", "fit-collinear", "fit-too-few-rows", "plot-missing-cell",
        "plot-text", "plot-collinear", "plot-too-few-rows", "fit-bad-row"])
def test_a_failing_command_keeps_no_entry_of_its_result_and_fails_the_same_way_again(
        monkeypatch, tmp_path, text, command, error):
    monkeypatch.chdir(tmp_path)  # a message names the input as it was given
    Path("t.csv").write_text(text)
    argv, tag = command
    for _ in range(2):
        assert _run([*argv, "--input", "t.csv"]) == (1, "", f"error: {error}\n", None)
        assert not _entry_of("t.csv", tag).exists()


@pytest.mark.parametrize("first", [None, _job("keycount", key="t")], ids=["cold", "after-a-job"])
@pytest.mark.parametrize("job, error", [
    (_job("max", column="t"), "column 't' is not numeric"),
    (_job("max", column="nope"), "no column named 'nope'"),
    (_job("keycount", key="nope"), "no column named 'nope'"),
    (_job("keycount", key="t", column="nope"), "no column named 'nope'"),
], ids=["max-text", "max-unknown", "keycount-unknown-key", "keycount-unknown-column"])
def test_a_failing_job_prints_only_its_error_and_keeps_no_entry(monkeypatch, tmp_path, first,
                                                                job, error):
    # on a table the cache has not seen, and after another job on the same
    # bytes has kept its answer and the parse of the columns they share
    monkeypatch.chdir(tmp_path)
    Path("t.csv").write_text(_FAILING)
    if first is not None:
        assert _run([*first[0], "--input", "t.csv"])[0] == 0
    argv, tag = job
    for _ in range(2):
        assert _run([*argv, "--input", "t.csv"]) == (1, "", f"error: {error}\n", None)
        assert not _entry_of("t.csv", tag).exists()


@pytest.mark.parametrize("size", ["0", "-3"])
def test_a_bad_chunk_size_is_refused_before_the_inputs_are_hashed(monkeypatch, tmp_path, size):
    # the job's answer is kept, and reading it back would need no chunk at all
    path = tmp_path / "t.csv"
    path.write_text(_FAILING)
    argv = [*_job("keycount", key="t")[0], "--input", str(path)]
    assert _run(argv)[0] == 0

    def no_hash(paths):
        raise AssertionError("the inputs are hashed")

    monkeypatch.setattr(colcache, "_input_digests", no_hash)
    assert _run([*argv, "--chunk-size", size]) == (
        1, "", f"error: chunk_size must be >= 1, got {size}\n", None)


@pytest.mark.parametrize("options", [("--cutoff", "0"), ("--cutoff", "nan"),
                                     ("--threshold", "1.5"), ("--threshold", "0", "--cutoff", "2")])
def test_a_bad_option_fails_the_same_way_on_a_hit_as_on_a_miss(tmp_path, makers, options):
    path, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
    for table in (path, fresh):
        table.write_text("a,b,c\n1,2,3\n2,5,1\n3,4,4\n4,9,2\n")
    assert _run(["pca", "--input", str(path)])[0] == 0
    hit = _run(["pca", "--input", str(path), *options])
    assert makers.calls["factoring"] == 1
    assert hit[0] == 1 and hit[2].startswith("error: ")
    assert hit == _run(["pca", "--input", str(fresh), *options])


def test_a_summary_that_fails_after_its_fit_fails_the_same_way_on_a_hit(monkeypatch, tmp_path,
                                                                        makers):
    # the entry holds the fit, and the summary is made from it on every run
    def failing_f_cdf(x, d1, d2):
        raise DomainError("degrees of freedom are too large")

    monkeypatch.setattr(stats, "f_cdf", failing_f_cdf)
    path = tmp_path / "t.csv"
    path.write_text("y,x\n1,2\n2,5\n4,4\n3,9\n")
    argv, _ = _fit("regress", ["y", "x"])
    for _ in range(2):
        assert _run([*argv, "--input", str(path)]) == (
            1, "", "error: degrees of freedom are too large\n", None)
        assert makers.calls["fit"] == 1


# -- entry writes that fail, and inputs that go away --------------------------------------

class _FullDisk:
    """A file being written that takes one write, then fails as a full disk does."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        if self.writes:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.writes += 1
        return self.fh.write(data)


_CACHED_COMMANDS = {
    "keycount": _job("keycount", key="k")[0],
    "max": _job("max", column="y")[0],
    "regress": ["regress", "--dependent", "y", "--independents", "x"],
    "pca": ["pca"],
}


def _table_and_copy(tmp_path):
    """A table of a key and two numeric columns, and a copy of it in a directory of its own."""
    path, copy = tmp_path / "t.csv", tmp_path / "copy" / "t.csv"
    copy.parent.mkdir()
    for table in (path, copy):
        table.write_text("k,y,x\na,1,2\nb,2,5\na,4,4\nb,3,9\n")
    return path, copy


@pytest.mark.parametrize("command", list(_CACHED_COMMANDS))
def test_an_entry_write_that_fails_part_way_leaves_no_file_and_the_output(monkeypatch, tmp_path,
                                                                          command):
    # the disk fills after an entry's first line: the command prints what it
    # prints with room to spare, and no part of an entry is left in the cache
    path, copy = _table_and_copy(tmp_path)
    want = _run([*_CACHED_COMMANDS[command], "--input", str(copy)])

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = io.open(file, mode, *args, **kwargs)
        return _FullDisk(fh) if mode == "xb" else fh

    monkeypatch.setattr(colcache, "open", full_disk_open, raising=False)
    assert _run([*_CACHED_COMMANDS[command], "--input", str(path)]) == want
    assert list((tmp_path / colcache._CACHE_DIR).iterdir()) == []


@pytest.mark.parametrize("command, module, name", [
    ("keycount", csvload, "_load"), ("keycount", mapreduce, "map_reduce"),
    ("max", mapreduce, "map_reduce"), ("regress", stats, "ols_terms"),
    ("pca", pca, "extract_factors"),
])
def test_an_input_deleted_before_it_is_hashed_again_keeps_no_entry(monkeypatch, tmp_path,
                                                                   command, module, name):
    # the input goes away once the parse, the fit, the factoring or the fold is
    # made: the result is printed, and kept only if it was made before (the
    # parse of a fit, a factoring or a fold)
    path, copy = _table_and_copy(tmp_path)
    want = _run([*_CACHED_COMMANDS[command], "--input", str(copy)])
    make = getattr(module, name)

    def make_then_delete(*args, **kwargs):
        made = make(*args, **kwargs)
        path.unlink()
        return made

    monkeypatch.setattr(module, name, make_then_delete)
    assert _run([*_CACHED_COMMANDS[command], "--input", str(path)]) == want
    cache = tmp_path / colcache._CACHE_DIR
    kept = list(cache.iterdir()) if cache.exists() else []
    assert len(kept) == (0 if name == "_load" else 1)  # the parse entry of the derived result
