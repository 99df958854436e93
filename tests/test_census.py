"""The census tool on a fixture package: what it counts as executed.

The package defines five functions: one the entry script calls, one
called only in a subprocess the script spawns, one called only on a
thread the script starts, one nobody calls and an abstract stub.  The
census must list exactly the uncalled one, and ``--check`` must fail
when a new uncalled function appears or a listed one gives no reason,
and pass when a listed one is deleted.  Regenerating the file keeps the
reason of every line that survives.  The tool's paths and entry points are module constants;
the fixture points them at the package under ``tmp_path``.
"""

import sys
import textwrap

import pytest

import tools.census as census_tool
from tools.census import main

FUNCS = textwrap.dedent(
    '''
    def called_by_entry():
        return 1


    def called_in_subprocess():
        return 2


    def called_on_thread():
        return 3


    def never_called():
        return 4


    class Shape:
        def area(self):
            """Subclasses decide."""
            raise NotImplementedError
    '''
)

ENTRY = textwrap.dedent(
    """
    import subprocess
    import sys
    import threading

    from censuspkg import funcs

    funcs.called_by_entry()
    code = "from censuspkg import funcs; funcs.called_in_subprocess()"
    subprocess.run([sys.executable, "-c", code], check=True)
    worker = threading.Thread(target=funcs.called_on_thread)
    worker.start()
    worker.join()
    """
)


@pytest.fixture
def fixture(tmp_path, monkeypatch):
    package = tmp_path / "censuspkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "funcs.py").write_text(FUNCS)
    (tmp_path / "entry.py").write_text(ENTRY)
    census = tmp_path / "CENSUS.txt"
    entry = census_tool.Entry("entry.py", (sys.executable, "entry.py"))
    monkeypatch.setattr(census_tool, "PACKAGE", package)
    monkeypatch.setattr(census_tool, "REPO", tmp_path)
    monkeypatch.setattr(census_tool, "CENSUS_FILE", census)
    monkeypatch.setattr(census_tool, "default_entries", lambda scratch: [entry])
    return package / "funcs.py", census


def listed(census):
    lines = census.read_text().splitlines()
    return [line for line in lines if not line.startswith("#")]


def give_reasons(census, reason="debug"):
    """Append ``  # reason`` to every listed line without one."""
    lines = [
        line if line.startswith("#") or " # " in line else f"{line}  # {reason}"
        for line in census.read_text().splitlines()
    ]
    census.write_text("".join(f"{line}\n" for line in lines))


def test_lists_exactly_the_uncalled_function(fixture):
    _, census = fixture
    assert main([]) == 0
    assert listed(census) == ["censuspkg/funcs.py:never_called"]


def test_check_fails_on_a_new_uncalled_function(fixture):
    funcs, census = fixture
    assert main([]) == 0
    give_reasons(census)
    assert main(["--check"]) == 0
    funcs.write_text(FUNCS + "\n\ndef also_never_called():\n    return 5\n")
    assert main(["--check"]) == 1
    # --check never rewrites the file
    assert listed(census) == ["censuspkg/funcs.py:never_called  # debug"]


def test_check_accepts_a_tagged_line(fixture):
    _, census = fixture
    assert main([]) == 0
    census.write_text(
        census_tool.HEADER + "censuspkg/funcs.py:never_called  # test-oracle\n"
    )
    assert main(["--check"]) == 0


def test_check_fails_on_a_line_without_a_reason(fixture, capsys):
    _, census = fixture
    assert main([]) == 0
    assert listed(census) == ["censuspkg/funcs.py:never_called"]
    assert main(["--check"]) == 1
    assert "give no reason" in capsys.readouterr().err


def test_rewrite_keeps_the_reason_of_a_surviving_line(fixture):
    funcs, census = fixture
    funcs.write_text(FUNCS + "\n\ndef also_never_called():\n    return 5\n")
    assert main([]) == 0
    census.write_text(
        census_tool.HEADER
        + "censuspkg/funcs.py:also_never_called  # item 7\n"
        + "censuspkg/funcs.py:never_called  # debug\n"
    )
    funcs.write_text(FUNCS)  # also_never_called is deleted
    assert main([]) == 0
    assert listed(census) == ["censuspkg/funcs.py:never_called  # debug"]
    funcs.write_text(FUNCS + "\n\ndef late():\n    return 6\n")
    assert main([]) == 0
    assert listed(census) == [
        "censuspkg/funcs.py:late",
        "censuspkg/funcs.py:never_called  # debug",
    ]


def test_check_passes_when_a_listed_function_is_deleted(fixture):
    funcs, census = fixture
    assert main([]) == 0
    funcs.write_text(FUNCS.replace("def never_called():\n    return 4\n", ""))
    assert main(["--check"]) == 0


def test_a_failing_entry_point_is_an_error_not_a_census(fixture, tmp_path):
    _, census = fixture
    (tmp_path / "entry.py").write_text("raise SystemExit(3)\n")
    assert main([]) == 2
    assert not census.exists()


SHARED_NAMES = textwrap.dedent(
    """

    class Box:
        @property
        def size(self):
            return 1

        @size.setter
        def size(self, value):
            pass


    if True:
        def pick():
            return 1
    else:
        def pick():
            return 2
    """
)


def test_defs_sharing_a_qualname_are_listed_apart(fixture, tmp_path):
    funcs, census = fixture
    funcs.write_text(FUNCS + SHARED_NAMES)
    (tmp_path / "entry.py").write_text(
        ENTRY + "funcs.Box().size\nfuncs.pick()\n"
    )
    assert main([]) == 0
    assert listed(census) == [
        "censuspkg/funcs.py:Box.size.setter",
        "censuspkg/funcs.py:never_called",
        "censuspkg/funcs.py:pick#2",
    ]
