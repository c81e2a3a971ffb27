"""Regenerate the trial sweeps and the evaluation tables (Tables 3–9).

    python jobs/cli.py sweeps [--profile test|quick] [--out DIR]
    python jobs/cli.py table5 [--profile test|quick] [--out FILE]
    python jobs/cli.py all    [--profile test|quick] [--out DIR]

``sweeps`` writes one parquet directory per sweep under ``--out`` (default
``results/trials_<profile>``) and skips sweeps already written. ``tableN``
prints its table as markdown and also writes it to ``--out`` when given;
Tables 5–7 and 9 read (and first run, if missing) the default sweeps.
``all`` writes ``trials_<profile>/`` and ``table3.md`` … ``table9.md``
under ``--out`` (default ``results/``) from one Spark session, measuring
Table 8 once for Tables 8 and 9.
"""
import argparse
import os
import sys
import time

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results"
)
TABLES = tuple(f"table{i}" for i in range(3, 10))
TABLE4_THETA = {"test": 1 << 14, "quick": 1 << 18}
SORT_KEYS = {
    "table5": ["network", "setting", "k", "alg"],
    "table6": ["network", "setting", "k"],
    "table7": ["network", "setting", "k"],
    "table9": ["network", "setting", "alg"],
}


def get_spark(app: str):
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --driver-memory 8g "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )


def run_sweeps(spark, profile: str, out_dir: str) -> str:
    """Write each sweep of ``profile`` as parquet under ``out_dir``."""
    from repro.experiments.instances import sweeps
    from repro.experiments.tables import run_sweep

    all_sweeps = sweeps(profile)
    for i, sw in enumerate(all_sweeps):
        part = os.path.join(out_dir, f"{sw.network}__{sw.setting}__k{sw.k}")
        if os.path.exists(part):
            print(f"[{i+1}/{len(all_sweeps)}] skip (exists): {part}")
            continue
        t0 = time.time()
        run_sweep(spark, sw).write.mode("overwrite").parquet(part)
        print(
            f"[{i+1}/{len(all_sweeps)}] {sw.network} {sw.setting} k={sw.k} "
            f"T={sw.trials}: {time.time()-t0:.1f}s"
        )
    return out_dir


def load_trials(spark, out_dir: str):
    return spark.read.parquet(os.path.join(out_dir, "*"))


def make_tables(spark, names, profile: str, trials_dir: str):
    """Yield ``(name, markdown)`` per table; sweeps and Table 8 run once."""
    from repro.experiments import tables

    trials = t8 = None
    for name in names:
        if name in ("table5", "table6", "table7", "table9") and trials is None:
            trials = load_trials(
                spark, run_sweeps(spark, profile, trials_dir)
            ).cache()
        if name in ("table8", "table9") and t8 is None:
            t8 = tables.table8(spark, profile)
        if name == "table3":
            df = tables.table3(spark)
        elif name == "table4":
            df = tables.table4(spark, theta=TABLE4_THETA[profile])
        elif name == "table5":
            df = tables.table5(trials)
        elif name in ("table6", "table7"):
            df = tables.table6_and_7(trials)[name == "table7"]
        elif name == "table8":
            df = t8
        else:
            df = tables.table9(trials, t8)
        if name in SORT_KEYS:
            df = df.sort_values(SORT_KEYS[name])
        yield name, tables.to_markdown(df)


def emit(text: str, out: str | None) -> None:
    print(text)
    if out:
        os.makedirs(os.path.dirname(out), exist_ok=True)
        with open(out, "w") as f:
            f.write(text + "\n")
    sys.stdout.flush()


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", choices=["sweeps", *TABLES, "all"])
    ap.add_argument("--profile", default="quick", choices=["test", "quick"])
    ap.add_argument("--out", default=None, help="output file or directory")
    args = ap.parse_args(argv)
    # Spark resolves relative paths against the JVM's working directory,
    # which need not be this process's: hand it absolute paths only.
    out = os.path.abspath(args.out) if args.out else None
    default_trials = os.path.join(RESULTS_DIR, f"trials_{args.profile}")
    spark = get_spark(f"repro-{args.command}")

    if args.command == "sweeps":
        path = run_sweeps(spark, args.profile, out or default_trials)
        print(f"trials written under {path}")
    elif args.command == "all":
        out_dir = out or RESULTS_DIR
        trials_dir = os.path.join(out_dir, f"trials_{args.profile}")
        for name, text in make_tables(
            spark, TABLES, args.profile, trials_dir
        ):
            emit(text, os.path.join(out_dir, f"{name}.md"))
        print("ALL TABLES DONE")
    else:
        [(_, text)] = make_tables(
            spark, [args.command], args.profile, default_trials
        )
        emit(text, out)


if __name__ == "__main__":
    main()
