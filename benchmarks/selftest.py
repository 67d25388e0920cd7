"""Self-test of the benchmark: its output checks and its self-time arithmetic.

    python3 benchmarks/selftest.py

A real ``scan`` output (a small k=1 scan, under a second) is recorded once and
then replayed, intact and corrupted, through the same code path the
benchmark uses for every operation (``worker.run_op``).
"""
from __future__ import annotations

import io
import json
import sys
import tempfile
import threading
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from spectree import cli  # noqa: E402

# k=1 table potential of the acceptance corpus, depth 8: a quick real scan
SMALL_SCAN = workloads._scan_op("k1 table", 1, 8, workloads.SCAN_CORPUS[-1][2], "minus")


class Replay:
    """Stands in for ``spectree.cli``: prints a fixed stdout and writes a fixed CSV."""

    def __init__(self, stdout: str, csv_text: str, rc: int = 0):
        self.stdout, self.csv_text, self.rc = stdout, csv_text, rc

    def main(self, argv):
        if "--out" in argv:
            Path(argv[argv.index("--out") + 1]).write_text(self.csv_text)
        print(self.stdout, end="")
        return self.rc


class OutputChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.csv_path = Path(cls.tmp.name) / "scan.csv"
        out = io.StringIO()
        with redirect_stdout(out):
            rc = cli.main(SMALL_SCAN.resolved_argv(str(cls.csv_path)))
        assert rc == 0
        cls.stdout, cls.csv_text = out.getvalue(), cls.csv_path.read_text()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def replay(self, stdout=None, csv_text=None, rc=0, op=SMALL_SCAN):
        fake = Replay(self.stdout if stdout is None else stdout,
                      self.csv_text if csv_text is None else csv_text, rc)
        return worker.run_op(fake, workloads.CHECKS, op, self.csv_path)

    def mutated(self, **changes):
        out = json.loads(self.stdout)
        for key, value in changes.items():
            if key.startswith("ladder_"):
                out["ladder"][-1][key[len("ladder_"):]] = value
            else:
                out[key] = value
        return json.dumps(out)

    def test_intact_scan_passes(self):
        rec = self.replay()
        self.assertTrue(rec["ok"], rec["misses"])

    def test_corrupted_scan_json_fails(self):
        for change in ({"ladder_rounded": 1}, {"ladder_residual": 0.05},
                       {"ladder_radius": 0.08}, {"min_sv": 1e-4}, {"flagged": 1},
                       {"rows": 1023}):
            with self.subTest(change=change):
                self.assertFalse(self.replay(stdout=self.mutated(**change))["ok"])
        self.assertFalse(self.replay(stdout="not json")["ok"])
        self.assertFalse(self.replay(rc=2)["ok"])

    def test_corrupted_scan_csv_fails(self):
        lines = self.csv_text.splitlines(keepends=True)
        header, rows = lines[0], lines[1:]
        # a field printed with 16 significant digits instead of 17
        fields = rows[5].rstrip("\r\n").split(",")
        x = float(fields[2])
        self.assertNotEqual(f"{x:.16g}", fields[2])
        fields[2] = f"{x:.16g}"
        sixteen = header + "".join(rows[:5]) + ",".join(fields) + "\r\n" + "".join(rows[6:])
        self.assertFalse(self.replay(csv_text=sixteen)["ok"])
        self.assertFalse(self.replay(csv_text=header + "".join(rows[:-1]))["ok"])
        self.assertFalse(self.replay(csv_text="a,b,c,d\r\n" + "".join(rows))["ok"])

    def test_kernel_gate(self):
        op = workloads.kernel_deep(0)[1]
        good = {"k": 3, "depth": 6, "rel_frobenius_error": 3e-16}
        self.assertTrue(self.replay(stdout=json.dumps(good), op=op)["ok"])
        bad = dict(good, rel_frobenius_error=2e-6)
        self.assertFalse(self.replay(stdout=json.dumps(bad), op=op)["ok"])

    def test_validate_gate(self):
        op = workloads.validate_dense(0)[1]
        good = "a check  PASS  value=0 tol=0\noverall  PASS\n"
        self.assertTrue(self.replay(stdout=good, op=op)["ok"])
        self.assertFalse(self.replay(stdout=good.replace("overall  PASS", "overall  FAIL"),
                                     op=op)["ok"])

    def test_raising_operation_fails(self):
        class Broken:
            def main(self, argv):
                raise RuntimeError("boom")

        rec = worker.run_op(Broken(), workloads.CHECKS, SMALL_SCAN, self.csv_path)
        self.assertFalse(rec["ok"])
        self.assertIn("boom", rec["misses"][0])


class SelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        # (id, name, start, end, parent, thread)
        spans = [(0, 0, 0.0, 10.0, -1, 1), (1, 0, 1.0, 4.0, 0, 1),
                 (2, 0, 2.0, 3.0, 1, 1), (3, 0, 5.0, 9.0, 0, 1)]
        got = tracing.self_times(spans)
        for sid, want in {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}.items():
            self.assertAlmostEqual(got[sid], want)

    def test_overlapping_threads_split_shared_time(self):
        spans = [(0, 0, 0.0, 10.0, -1, 1), (1, 0, 2.0, 6.0, 0, 2),
                 (2, 0, 4.0, 8.0, 0, 3), (3, 0, 5.0, 6.0, 2, 3)]
        got = tracing.self_times(spans)
        # [4, 5]: spans 1 and 2 share; [5, 6]: spans 1 and 3 share
        for sid, want in {0: 4.0, 1: 3.0, 2: 2.5, 3: 0.5}.items():
            self.assertAlmostEqual(got[sid], want)
        self.assertAlmostEqual(sum(got.values()), 10.0)

    def test_summary_totals(self):
        names = ["cli.main", "charval.absence_scan", "charval.linalg.svd"]
        spans = [(0, 0, 0.0, 10.0, -1, 1), (1, 1, 1.0, 9.0, 0, 1), (2, 2, 2.0, 3.0, 1, 2)]
        m = tracing.summarize(names, spans, {})["metrics"]
        self.assertAlmostEqual(m["cli.self_s"], 2.0)
        self.assertAlmostEqual(m["charval.self_s"], 8.0)
        self.assertAlmostEqual(m["charval.linalg.self_s"], 1.0)
        self.assertEqual(m["charval.linalg.svd.calls"], 1)
        self.assertAlmostEqual(m["trace.self_sum_s"], m["trace.wall_s"])


class Recording(unittest.TestCase):
    def test_parents_across_threads(self):
        tracer = tracing.Tracer()
        inner = tracer.wrap(lambda: None, lambda: tracer.name_id("inner"))

        def work():
            t = threading.Thread(target=inner)
            t.start()
            t.join(timeout=10)
            self.assertFalse(t.is_alive())
            inner()

        tracer.wrap(work, lambda: tracer.name_id("outer"))()
        by_name = {tracer.names[s[1]]: [] for s in tracer.spans}
        for s in tracer.spans:
            by_name[tracer.names[s[1]]].append(s)
        (outer,) = by_name["outer"]
        self.assertEqual(len(by_name["inner"]), 2)
        for span in by_name["inner"]:
            self.assertEqual(span[4], outer[0])
        self.assertEqual(len({s[5] for s in by_name["inner"]}), 2)


if __name__ == "__main__":
    unittest.main()
