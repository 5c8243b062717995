"""The csv and text renderings of each subcommand's report.

The command line loads this module only for ``--format csv`` and
``--format text``; json, the default, is rendered in :mod:`.cli`.
"""

import csv
import io

# the subcommands whose csv is one row per report row: (report key, columns)
_CSV_ROWS = {
    "validate": ("results", ("d", "a", "wtT", "mult", "T", "agree")),
    "scan": ("profile", ("interval_start", "a", "T", "midpoint", "midpoint_T")),
    "integrality": ("rows", ("p", "q", "T", "integer", "nonnegative", "vanishes", "adjunction_bound")),
}


def render_csv(command: str, payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if command in _CSV_ROWS:
        key, columns = _CSV_ROWS[command]
        writer.writerow(columns)
        for row in payload[key]:
            writer.writerow([row[c] for c in columns])
    elif command == "gamma":
        writer.writerow(["k", "i", "j"])
        for k, (i, j) in enumerate(payload["points"]):
            writer.writerow([k, i, j])
    elif command == "trees":
        writer.writerow(["key", "aut", "vertices"])
        for row in payload["trees"]:
            cells = ";".join(
                f"l={v['leaf_number']} val={v['valency']} mov={int(v['movable'])}"
                for v in row["vertices"]
            )
            writer.writerow([row["key"], row["aut"], cells])
    else:  # compute
        header = [k for k in payload if k != "warning"]
        writer.writerow(header)
        writer.writerow([payload[k] for k in header])
    return buf.getvalue().rstrip("\n")


def render_text(command: str, payload: dict) -> str:
    lines: list[str] = []
    if command == "gamma":
        lines.append(f"path for a = {payload['a']}:")
        lines.append("  " + " ".join(f"({i},{j})" for i, j in payload["points"]))
    elif command == "trees":
        count, d = payload["count"], payload["d"]
        lines.append(f"{count} {'tree' if count == 1 else 'trees'} with {d} {'leaf' if d == 1 else 'leaves'}:")
        width = max(len(r["key"]) for r in payload["trees"])
        for row in payload["trees"]:
            cells = "; ".join(
                f"l={v['leaf_number']} |v|={v['valency']}" + (" movable" if v["movable"] else "")
                for v in row["vertices"]
            ) or "no internal vertices"
            lines.append(f"  {row['key']:<{width}}  Aut={row['aut']:<6} {cells}")
    elif command == "compute":
        lines.append(
            f"T_{payload['d']}^{payload['a']} = {payload['T']}  "
            f"(wtT = {payload['wtT']}, mult = {payload['mult']}, method = {payload['method']})"
        )
        if "warning" in payload:
            lines.append(f"warning: {payload['warning']}")
    elif command == "validate":
        for row in payload["results"]:
            lines.append(f"d={row['d']} a={row['a']}: wtT = {row['wtT']}, T = {row['T']}, agree = {row['agree']}")
    elif command == "scan":
        lines.append(f"T profile for d = {payload['d']} (interval start -> value):")
        for row in payload["profile"]:
            lines.append(f"  a > {row['interval_start']}: T = {row['T']}")
        lines.append(f"  a = inf: T = {payload['infinity_T']}")
        lines.append(f"nondecreasing: {payload['nondecreasing']}  consistent: {payload['consistent']}")
    else:  # integrality
        lines.append(f"boundary fractions for d = {payload['d']} (p + q = {3 * payload['d']}):")
        for row in payload["rows"]:
            flags = [name for name in ("integer", "nonnegative", "vanishes", "adjunction_bound") if row[name]]
            lines.append(f"  a = {row['p']}/{row['q']}: T = {row['T']}  [{' '.join(flags)}]")
        lines.append(f"all integral: {payload['all_integral']}")
    return "\n".join(lines)
