"""Independent checks of what `ldiv` wrote, read back from disk.

A release passes when
  1. no SA value covers more than 1/l of any released QI-group
     (Definition 2); for an Anatomy release, of any bucket;
  2. it covers the input exactly: the same row count and the same SA
     multiset;
  3. its star count equals the `stars` its job's report states.
The files are parsed with the standard library alone, so a bug shared by
the program's release writer and its own reader cannot hide here.
"""

import collections
import hashlib
import json
import os


class CheckError(Exception):
    """An output that fails a check."""


def _rows(path):
    """The data lines of a CSV file (header dropped)."""
    try:
        with open(path, "rb") as f:
            lines = f.read().decode().split("\n")
    except OSError as e:
        raise CheckError("cannot read %s: %s" % (path, e))
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CheckError("%s has no header" % path)
    return lines[1:]


def _diverse(where, hist, l):
    size = sum(hist.values())
    value, top = max(hist.items(), key=lambda kv: kv[1])
    if top * l > size:
        raise CheckError("%s breaks Definition 2: SA value '%s' covers %d of its %d rows, "
                         "more than 1/%d" % (where, value, top, size, l))


def _covers(path, rows, released_sa, sa_counts):
    expected = sum(sa_counts.values())
    if rows != expected:
        raise CheckError("%s releases %d rows for %d input rows" % (path, rows, expected))
    if released_sa != sa_counts:
        value = next(v for v in set(released_sa) | set(sa_counts)
                     if released_sa[v] != sa_counts[v])
        raise CheckError("%s releases SA value '%s' %d times; the input holds it %d times"
                         % (path, value, released_sa[value], sa_counts[value]))


def check_generalized(path, l, sa_counts, stars):
    """A suppression-view release: one row per input row, each QI cell a
    value or '*'; the rows of one released QI-group share their QI cells."""
    rows = _rows(path)
    groups = collections.defaultdict(collections.Counter)
    released_sa = collections.Counter()
    star_count = 0
    for line, count in collections.Counter(rows).items():
        qi, _, sa = line.rpartition(",")
        groups[qi][sa] += count
        released_sa[sa] += count
        star_count += qi.split(",").count("*") * count
    for qi, hist in groups.items():
        _diverse("%s: QI-group (%s)" % (path, qi), hist, l)
    _covers(path, len(rows), released_sa, sa_counts)
    if star_count != stars:
        raise CheckError("%s has %d stars; its report states %d" % (path, star_count, stars))


def check_anatomy(stem, l, sa_counts, stars):
    """An Anatomy release: the exact-QI table <stem>.csv (QI..., Bucket)
    and the sensitive table <stem>_sa.csv (Bucket, SA, Count)."""
    qit_rows = _rows(stem + ".csv")
    bucket_rows = collections.Counter(line.rpartition(",")[2] for line in qit_rows)
    buckets = collections.defaultdict(collections.Counter)
    released_sa = collections.Counter()
    for line in _rows(stem + "_sa.csv"):
        bucket, sa, count = line.split(",")
        buckets[bucket][sa] += int(count)
        released_sa[sa] += int(count)
    for bucket, hist in buckets.items():
        _diverse("%s: bucket %s" % (stem, bucket), hist, l)
    _covers(stem + "_sa.csv", len(qit_rows), released_sa, sa_counts)
    if set(bucket_rows) != set(buckets):
        raise CheckError("%s: the QI and SA tables name different buckets" % stem)
    for bucket, hist in buckets.items():
        if sum(hist.values()) != bucket_rows[bucket]:
            raise CheckError("%s: bucket %s holds %d QI rows but %d SA values"
                             % (stem, bucket, bucket_rows[bucket], sum(hist.values())))
    if stars != 0:
        raise CheckError("%s: an Anatomy release has no stars; its report states %d"
                         % (stem, stars))


def report_jobs(stem):
    """The job entries of the JSON report at <stem>.json."""
    try:
        with open(stem + ".json") as f:
            return json.load(f)["jobs"]
    except (OSError, ValueError, KeyError) as e:
        raise CheckError("cannot read the report %s.json: %s" % (stem, e))


def check_job(stem, job, algorithm, l, sa_counts):
    """Full check of the release at `stem` against its report entry `job`,
    which must be the requested algorithm at the requested l."""
    if job.get("algorithm", "").lower() != algorithm.lower() or job.get("l") != l:
        raise CheckError("%s: the report describes %s at l=%s, not the requested %s at l=%d"
                         % (stem, job.get("algorithm"), job.get("l"), algorithm, l))
    if not job.get("feasible"):
        raise CheckError("%s: the report calls the job infeasible" % stem)
    if job.get("methodology") == "bucketization":
        check_anatomy(stem, l, sa_counts, job["stars"])
    else:
        check_generalized(stem + ".csv", l, sa_counts, job["stars"])


def release_files(stem):
    """The files of the release at `stem`: the suppression-view CSV or the
    Anatomy pair, plus a raw input's dictionary sidecar."""
    return [p for p in (stem + ".csv", stem + "_sa.csv", stem + "_dict.csv")
            if os.path.exists(p)]


def digest(paths):
    """One digest over the contents of `paths`, in order."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            data = f.read()
        h.update(b"%d\0" % len(data))
        h.update(data)
    return h.hexdigest()


def normalized_report(stem):
    """The JSON report at <stem>.json without its wall-clock lines
    ("seconds", "threads"), which differ between runs of one request."""
    with open(stem + ".json") as f:
        return "".join(line for line in f
                       if '"seconds":' not in line and '"threads":' not in line)


def flip_sa(path, l):
    """Self-test of the checker: corrupts a suppression-view release in
    place so that one QI-group breaks Definition 2 (one of its rows takes
    the group's most frequent SA value). Returns the group's QI cells."""
    with open(path) as f:
        lines = f.read().split("\n")
    groups = collections.defaultdict(list)
    for i in range(1, len(lines)):
        if lines[i]:
            groups[lines[i].rpartition(",")[0]].append(i)
    for qi, members in groups.items():
        hist = collections.Counter(lines[i].rpartition(",")[2] for i in members)
        value, top = hist.most_common(1)[0]
        if top < len(members) and (top + 1) * l > len(members):
            victim = next(i for i in members if lines[i].rpartition(",")[2] != value)
            lines[victim] = qi + "," + value
            with open(path, "w") as f:
                f.write("\n".join(lines))
            return qi
    raise CheckError("%s has no QI-group one flip away from breaking Definition 2" % path)
