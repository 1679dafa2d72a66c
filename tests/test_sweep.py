import numpy as np

from swarmlift.mu import MarginResult
from swarmlift.sweep import read_margin_csv, write_margin_csv


def test_margin_csv_round_trip(tmp_path):
    # grid points arrive as numpy scalars; the CSV must still be numbers
    results = [
        MarginResult(np.float64(0.0), np.float64(6.0), 0.0, 0.0, np.nan,
                     np.nan, False),
        MarginResult(np.float64(8.0), np.float64(6.0), 1.5263651609755482,
                     0.3059278104221049, np.float64(4.328761281083057),
                     4.328761281083057, True),
    ]
    path = str(tmp_path / "margins.csv")
    write_margin_csv(results, path)
    table = read_margin_csv(path)
    expected = np.array([[r.M, r.C, r.rs_margin, r.rp_margin, r.peak_freq_rs,
                          r.peak_freq_rp] for r in results])
    np.testing.assert_array_equal(table, expected)
