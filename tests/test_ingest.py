"""CSV ingestion: schemas, roundtrips, error reporting."""
import re

import numpy as np
import pytest

from returncast.ingest import (
    load_ga_calendar,
    load_history,
    write_ga_calendar,
    write_history,
)
from returncast.errors import ValidationError

from helpers import family_calendar, gen_series, month

GOOD_HEADER = "generation_id,month,shipments,upgrades,new_receipts,gross_returns\n"
GA_HEADER = "generation_id,family,ordinal,ga_month\n"


def test_history_roundtrip(tmp_path):
    cal = family_calendar("2008-01", "2010-01")
    original = [
        gen_series(
            "gen1", "2008-01",
            returns=[0.0, 1.5, 2.0],
            shipments=[10.0, 12.25, 9.0],
            upgrades=[0.0, 1.0, 0.0],
            receipts=[3.0, 4.0, 5.5],
            ordinal=1,
        ),
        gen_series("gen2", "2010-01", returns=[7.0, 8.0], ordinal=2),
    ]
    path = tmp_path / "history.csv"
    write_history(path, original)
    loaded = load_history(path, cal)
    assert [s.generation.name for s in loaded] == ["gen1", "gen2"]
    assert loaded[0].generation.ordinal == 1
    for a, b in zip(original, loaded):
        assert a.start == b.start
        for channel in ("shipments", "upgrades", "new_receipts", "gross_returns"):
            assert np.array_equal(a.channel(channel), b.channel(channel)), channel


def test_history_without_calendar_defaults_ordinals(tmp_path):
    path = tmp_path / "history.csv"
    write_history(path, [gen_series("gen1", "2008-01", returns=[1.0, 2.0])])
    loaded = load_history(path)
    assert loaded[0].generation.ordinal == 0


def test_missing_file_names_the_path(tmp_path):
    missing = tmp_path / "absent.csv"
    with pytest.raises(FileNotFoundError, match="absent.csv"):
        load_history(missing)
    with pytest.raises(FileNotFoundError, match="absent.csv"):
        load_ga_calendar(missing)


def test_bad_header_is_rejected(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("gen,month,a,b,c,d\n")
    with pytest.raises(ValidationError, match="bad header"):
        load_history(path)


def test_malformed_cell_names_the_line(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text(
        GOOD_HEADER
        + "gen1,2008-01,10,0,3,1\n"
        + "gen1,2008-02,oops,0,3,1\n"
    )
    with pytest.raises(ValidationError, match="line 3"):
        load_history(path)


def test_negative_quantity_is_rejected(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text(GOOD_HEADER + "gen1,2008-01,10,0,-3,1\n")
    with pytest.raises(ValidationError, match="negative"):
        load_history(path)


def test_month_gap_is_an_error_not_imputed(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text(
        GOOD_HEADER
        + "gen1,2008-01,10,0,3,1\n"
        + "gen1,2008-03,10,0,3,1\n"
    )
    with pytest.raises(ValidationError, match="gap"):
        load_history(path)


def test_duplicate_month_is_an_error(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text(
        GOOD_HEADER
        + "gen1,2008-01,10,0,3,1\n"
        + "gen1,2008-01,11,0,3,1\n"
    )
    with pytest.raises(ValidationError, match="duplicate"):
        load_history(path)


def test_header_only_file_loads_empty(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text(GOOD_HEADER)
    assert load_history(path) == []
    ga = tmp_path / "ga.csv"
    ga.write_text(GA_HEADER)
    assert len(load_ga_calendar(ga)) == 0


def test_zero_byte_file_loads_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    assert load_history(path) == []
    assert len(load_ga_calendar(path)) == 0


@pytest.mark.parametrize(
    "load, text, message",
    [(load_history, GOOD_HEADER + "gen1,2008-01,10,0,3,1\ngen1,2008-02,10,0,3\n",
      "expected 6 fields, got 5"),
     (load_history, GOOD_HEADER + "gen1,2008-01,10,0,3,1\ngen1,2008-02,10,0,3,1,7\n",
      "expected 6 fields, got 7"),
     (load_ga_calendar, GA_HEADER + "gen1,fleet,1,2008-01\ngen2,fleet,2\n",
      "expected 4 fields, got 3"),
     (load_history, GOOD_HEADER + "gen1,2008-01,10,0,3,1\n,2008-02,10,0,3,1\n",
      "empty generation_id"),
     (load_ga_calendar, GA_HEADER + "gen1,fleet,1,2008-01\n ,fleet,2,2010-01\n",
      "empty generation_id"),
     (load_history, GOOD_HEADER + "gen1,2008-01,10,0,3,1\ngen1,2008-02,10,nan,3,1\n",
      "non-finite upgrades"),
     (load_history, GOOD_HEADER + "gen1,2008-01,10,0,3,1\ngen1,2008-02,10,0,3,inf\n",
      "non-finite gross_returns")],
    ids=["history-short-row", "history-long-row", "ga-short-row", "history-empty-generation",
         "ga-empty-generation", "nan-quantity", "inf-quantity"],
)
def test_refused_row_names_the_file_and_line(tmp_path, load, text, message):
    path = tmp_path / "input.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{path} line 3: {message}')}$"):
        load(path)


def test_ga_calendar_roundtrip(tmp_path):
    cal = family_calendar("2008-01", "2010-06", "2013-02")
    path = tmp_path / "ga.csv"
    write_ga_calendar(path, cal)
    loaded = load_ga_calendar(path)
    assert len(loaded) == 3
    assert loaded.ga_month("gen2") == month("2010-06")
    assert loaded.resolve("gen3").ordinal == 3
    assert [e.family for e in loaded.entries()] == ["fleet"] * 3


@pytest.mark.parametrize(
    "write, load",
    [(lambda path: write_history(path, [gen_series("gén1", "2008-01", returns=[1.0, 2.0])]),
      lambda path: load_history(path)[0].generation.name),
     (lambda path: write_ga_calendar(path, family_calendar("2008-01", family="flotte-é")),
      lambda path: load_ga_calendar(path).entries()[0].family)],
    ids=["history", "ga_calendar"],
)
def test_utf8_file_with_a_byte_order_mark_loads(tmp_path, write, load):
    # written as UTF-8 whatever the locale; read back the same with the
    # byte-order mark that a spreadsheet program saves in front
    path = tmp_path / "input.csv"
    write(path)
    text = path.read_bytes()
    assert "é".encode("utf-8") in text
    expected = load(path)
    path.write_bytes(b"\xef\xbb\xbf" + text)
    assert load(path) == expected
    assert "é" in expected


def test_ga_calendar_malformed_ordinal(tmp_path):
    path = tmp_path / "ga.csv"
    path.write_text("generation_id,family,ordinal,ga_month\ngen1,fleet,one,2008-01\n")
    with pytest.raises(ValidationError, match="ordinal"):
        load_ga_calendar(path)
