"""Census-shaped microdata generator owned by the benchmark.

Every input CSV the benchmark feeds to `ldiv` comes from here, from the
seed alone and with no dependency on the program's own code, so a change
to the program's data layer cannot change the workload. Columns follow the
SAL domains (Age 79, Gender 2, Race 9, Marital 6, BirthPlace 56,
Education 17 | Income 50) with skewed marginals; income rises with
education and a latent socio-economic status, and marital status depends
on age, in the spirit of the repository's ACS generator.
"""

import bisect
import collections
import hashlib
import random

QI_DOMAINS = [("Age", 79), ("Gender", 2), ("Race", 9), ("Marital", 6),
              ("BirthPlace", 56), ("Education", 17)]
SA_DOMAIN = ("Income", 50)

_STATES = ("AL AK AZ AR CA CO CT DE DC FL GA HI ID IL IN IA KS KY LA ME MD MA MI "
           "MN MS MO MT NE NV NH NJ NM NY NC ND OH OK OR PA RI SC SD TN TX UT VT "
           "VA WA WV WI WY AS GU MP PR VI").split()

LABELS = {
    "Age": [str(16 + a) for a in range(79)],
    "Gender": ["Male", "Female"],
    "Race": ["White", "Black", "Asian", "AmericanIndian", "PacificIslander",
             "Other", "TwoOrMore", "AlaskaNative", "Unreported"],
    "Marital": ["NeverMarried", "Married", "Divorced", "Widowed", "Separated",
                "SpouseAbsent"],
    "BirthPlace": _STATES,
    "Education": ["NoSchool", "Preschool", "Kindergarten", "Grade1-4", "Grade5-6",
                  "Grade7-8", "Grade9", "Grade10", "Grade11", "Grade12",
                  "HighSchool", "SomeCollege", "Associate", "Bachelor", "Master",
                  "Professional", "Doctorate"],
    "Income": ["%dk-%dk" % (5 * i, 5 * i + 5) for i in range(50)],
}
for _name, _size in QI_DOMAINS + [SA_DOMAIN]:
    assert len(LABELS[_name]) == _size, _name


def _cumulative(weights):
    out, total = [], 0.0
    for w in weights:
        total += w
        out.append(total)
    return out


def _zipf(k, s):
    return _cumulative([1.0 / (i + 1) ** s for i in range(k)])


def _draw(rand, cum, n):
    """n independent draws from the discrete distribution with cumulative
    weights `cum` (inverse CDF)."""
    total, hi, find = cum[-1], len(cum) - 1, bisect.bisect_right
    return [min(find(cum, rand() * total), hi) for _ in range(n)]


def generate_columns(seed, n):
    """Returns {column name: list of codes} for n rows, deterministic in
    (seed, n). Draws column by column from one seeded stream."""
    rng = random.Random(seed)
    rand = rng.random
    ses = _draw(rand, _cumulative([35, 30, 20, 10, 5]), n)
    # Age: the sum of two uniforms gives a census-like central bulge.
    age = [(int(rand() * 40) + int(rand() * 40)) % 79 for _ in range(n)]
    gender = [0 if rand() < 0.51 else 1 for _ in range(n)]
    race = _draw(rand, _zipf(9, 1.3), n)
    marital_by_band = [_cumulative(w) for w in ([70, 20, 4, 2, 2, 2],
                                                [15, 60, 12, 6, 4, 3],
                                                [6, 50, 15, 20, 6, 3])]
    find = bisect.bisect_right
    marital = []
    for a in age:
        cum = marital_by_band[0 if a < 12 else (1 if a < 42 else 2)]
        marital.append(min(find(cum, rand() * cum[-1]), 5))
    birth_noise = _draw(rand, _zipf(56, 1.1), n)
    birthplace = [(b + 5 * r) % 56 for b, r in zip(birth_noise, race)]
    edu_noise = _draw(rand, _zipf(6, 0.8), n)
    education = [min(16, e + 2 * s + (2 if a >= 7 else 0) + (1 if a >= 17 else 0))
                 for e, s, a in zip(edu_noise, ses, age)]
    income_noise = _draw(rand, _zipf(50, 1.15), n)
    income = [min(49, i + e // 3 + s) for i, e, s in zip(income_noise, education, ses)]
    return {"Age": age, "Gender": gender, "Race": race, "Marital": marital,
            "BirthPlace": birthplace, "Education": education, "Income": income}


class Input:
    """One written input CSV and what the checks need to know about it."""

    def __init__(self, path, rows, digest, schema, fmt, sa_counts):
        self.path = path
        self.rows = rows
        self.digest = digest
        self.schema = schema        # ldiv --schema spec; "" for raw inputs
        self.format = fmt           # "coded" or "raw"
        self.sa_counts = sa_counts  # Counter of SA cells as a release prints them


def write_csv(path, seed, n, qi_count, raw):
    """Writes an n-row CSV over the first `qi_count` QI attributes plus the
    SA, coded (integer cells) or raw (string labels)."""
    columns = generate_columns(seed, n)
    names = [name for name, _ in QI_DOMAINS[:qi_count]] + [SA_DOMAIN[0]]
    if raw:
        cells = [[LABELS[name][v] for v in columns[name]] for name in names]
        schema = ""
    else:
        digits = [str(i) for i in range(100)]
        cells = [[digits[v] for v in columns[name]] for name in names]
        schema = ",".join("%s:%d" % d for d in QI_DOMAINS[:qi_count])
        schema += "|%s:%d" % SA_DOMAIN
    body = ",".join(names) + "\n" + "\n".join(map(",".join, zip(*cells))) + "\n"
    data = body.encode()
    with open(path, "wb") as f:
        f.write(data)
    return Input(path, n, hashlib.sha256(data).hexdigest(), schema,
                 "raw" if raw else "coded", collections.Counter(cells[-1]))
