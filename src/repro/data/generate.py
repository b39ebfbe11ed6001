"""Seeded synthetic datasets standing in for the paper's live Internet sources.

The paper evaluates against real 1999-era web sites (BarnesAndNoble,
Autobytel, bank account lookups).  Offline, we generate relations whose
value distributions make the motivating queries behave the way the
paper describes -- e.g. the bookstore holds plenty of books matching
``title contains 'dreams'`` alone (the data Garlic's CNF plan would drag
over the network) but only a handful matching author AND title.

Every generator is a pure function of ``(n, seed)``.
"""

from __future__ import annotations

import random
from typing import Callable

from repro.data.relation import Relation
from repro.data.schema import AttrType, Schema

# ----------------------------------------------------------------------
# Value pools
# ----------------------------------------------------------------------

AUTHORS = [
    "Sigmund Freud", "Carl Jung", "William James", "Alfred Adler",
    "Anna Freud", "Karen Horney", "Erik Erikson", "B. F. Skinner",
    "Jean Piaget", "Abraham Maslow", "Viktor Frankl", "Erich Fromm",
    "John Dewey", "Kurt Lewin", "Gordon Allport", "Raymond Cattell",
    "Mary Ainsworth", "Lev Vygotsky", "Albert Bandura", "Carl Rogers",
    "Hermann Ebbinghaus", "Wilhelm Wundt", "Edward Thorndike",
    "Stanley Milgram", "Leon Festinger", "Harry Harlow", "Hans Eysenck",
    "Donald Hebb", "George Miller", "Ulric Neisser", "Noam Chomsky",
    "Roger Sperry",
]

TITLE_TOPICS = [
    "Dreams", "Memory", "Childhood", "Anxiety", "Symbols", "Psyche",
    "Consciousness", "Instinct", "Therapy", "Behavior", "Perception",
    "Personality", "Emotion", "Language", "Learning", "Motivation",
    "Attention", "Attachment", "Cognition", "Identity", "Intelligence",
    "Habit", "Will", "Imagination", "Reasoning", "Morality",
]

TITLE_FORMS = [
    "The Interpretation of {}", "On {}", "Essays on {}", "{} and Society",
    "A Study of {}", "The Psychology of {}", "{} Reconsidered",
    "Beyond {}", "Understanding {}", "{} in Everyday Life",
    "Lectures on {}", "The Origins of {}", "{} and Its Discontents",
    "Notes Toward a Theory of {}", "The Structure of {}",
    "{}: A Critical History", "Foundations of {}", "The Problem of {}",
]

SUBJECTS = [
    "psychology", "psychoanalysis", "philosophy", "self-help",
    "neuroscience", "history of science", "biography", "education",
]

BINDINGS = ["hardcover", "paperback", "audio"]

CAR_MAKES = {
    "Toyota": ["Camry", "Corolla", "Avalon", "Celica"],
    "BMW": ["318i", "328i", "528i", "740il"],
    "Honda": ["Accord", "Civic", "Prelude"],
    "Ford": ["Taurus", "Contour", "Escort"],
    "Mercedes": ["C230", "E320", "S420"],
    "Volkswagen": ["Jetta", "Passat", "Golf"],
}

CAR_STYLES = ["sedan", "coupe", "wagon", "convertible", "suv"]
CAR_SIZES = ["compact", "midsize", "fullsize"]
CAR_COLORS = ["red", "black", "white", "blue", "silver", "green"]

BRANCHES = ["downtown", "airport", "university", "harbor", "suburb"]
ACCOUNT_TYPES = ["checking", "savings", "moneymarket"]

AIRLINES = ["UA", "AA", "DL", "NW", "TW", "US"]
CITIES = ["SFO", "LAX", "JFK", "ORD", "SEA", "BOS", "DEN", "IAH", "MIA", "ATL"]


def _zipf_choice(rng: random.Random, items: list, skew: float = 1.2):
    """Pick an item with a Zipf-like skew (earlier items more likely)."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(len(items))]
    return rng.choices(items, weights=weights, k=1)[0]


def _relation(schema: Schema, rows: list[dict]) -> Relation:
    """``rows`` as a relation in which equal values of a column are one
    object: a generated title, year or price recurs thousands of times,
    and a copy per row was a quarter of a catalog's resident size.  (A
    generated column holds values of one type, so sharing by equality
    never changes a value's type.)"""
    pools: dict[str, dict] = {name: {} for name in schema.attribute_names}
    for row in rows:
        for name, value in row.items():
            row[name] = pools[name].setdefault(value, value)
    return Relation(schema, rows, validate=False)


# ----------------------------------------------------------------------
# Schemas
# ----------------------------------------------------------------------

BOOKS_SCHEMA = Schema.of(
    "books",
    [
        ("id", AttrType.INT),
        ("title", AttrType.STRING),
        ("author", AttrType.STRING),
        ("subject", AttrType.STRING),
        ("binding", AttrType.STRING),
        ("price", AttrType.FLOAT),
        ("year", AttrType.INT),
    ],
    key="id",
)

CARS_SCHEMA = Schema.of(
    "cars",
    [
        ("id", AttrType.INT),
        ("make", AttrType.STRING),
        ("model", AttrType.STRING),
        ("style", AttrType.STRING),
        ("size", AttrType.STRING),
        ("color", AttrType.STRING),
        ("price", AttrType.INT),
        ("year", AttrType.INT),
        ("mileage", AttrType.INT),
    ],
    key="id",
)

ACCOUNTS_SCHEMA = Schema.of(
    "accounts",
    [
        ("account_no", AttrType.INT),
        ("owner", AttrType.STRING),
        ("branch", AttrType.STRING),
        ("type", AttrType.STRING),
        ("balance", AttrType.FLOAT),
        ("pin", AttrType.INT),
    ],
    key="account_no",
)

FLIGHTS_SCHEMA = Schema.of(
    "flights",
    [
        ("id", AttrType.INT),
        ("origin", AttrType.STRING),
        ("destination", AttrType.STRING),
        ("airline", AttrType.STRING),
        ("price", AttrType.INT),
        ("stops", AttrType.INT),
        ("day", AttrType.INT),
    ],
    key="id",
)


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def generate_books(n: int = 20000, seed: int = 1999) -> Relation:
    """A bookstore relation echoing Example 1.1's BarnesAndNoble."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        topic = _zipf_choice(rng, TITLE_TOPICS, skew=0.4)
        title = rng.choice(TITLE_FORMS).format(topic)
        rows.append(
            {
                "id": i,
                "title": title,
                "author": _zipf_choice(rng, AUTHORS, skew=0.3),
                "subject": _zipf_choice(rng, SUBJECTS),
                "binding": rng.choice(BINDINGS),
                "price": round(rng.uniform(4.0, 120.0), 2),
                "year": rng.randint(1890, 1999),
            }
        )
    return _relation(BOOKS_SCHEMA, rows)


def generate_cars(n: int = 12000, seed: int = 1999) -> Relation:
    """A cars-for-sale relation echoing Example 1.2's Autobytel."""
    rng = random.Random(seed)
    rows = []
    makes = list(CAR_MAKES)
    for i in range(n):
        make = _zipf_choice(rng, makes)
        base_price = {"Toyota": 16000, "Honda": 15000, "Ford": 14000,
                      "Volkswagen": 17000, "BMW": 38000, "Mercedes": 45000}[make]
        rows.append(
            {
                "id": i,
                "make": make,
                "model": rng.choice(CAR_MAKES[make]),
                "style": _zipf_choice(rng, CAR_STYLES, skew=0.8),
                "size": rng.choice(CAR_SIZES),
                "color": _zipf_choice(rng, CAR_COLORS, skew=0.6),
                "price": int(base_price * rng.uniform(0.5, 1.6)),
                "year": rng.randint(1990, 1999),
                "mileage": rng.randint(0, 150000),
            }
        )
    return _relation(CARS_SCHEMA, rows)


def generate_accounts(n: int = 5000, seed: int = 1999) -> Relation:
    """A bank relation for the PIN-gated capability example (Section 4)."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        rows.append(
            {
                "account_no": 100000 + i,
                "owner": f"customer-{rng.randint(1, n // 2)}",
                "branch": rng.choice(BRANCHES),
                "type": _zipf_choice(rng, ACCOUNT_TYPES, skew=0.7),
                "balance": round(rng.lognormvariate(8.0, 1.2), 2),
                "pin": rng.randint(1000, 9999),
            }
        )
    return _relation(ACCOUNTS_SCHEMA, rows)


def generate_flights(n: int = 15000, seed: int = 1999) -> Relation:
    """A flight-listings relation for the multi-source examples."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        origin = rng.choice(CITIES)
        destination = rng.choice([c for c in CITIES if c != origin])
        rows.append(
            {
                "id": i,
                "origin": origin,
                "destination": destination,
                "airline": _zipf_choice(rng, AIRLINES, skew=0.5),
                "price": int(rng.uniform(80, 1400)),
                "stops": rng.choices([0, 1, 2], weights=[5, 3, 1], k=1)[0],
                "day": rng.randint(1, 365),
            }
        )
    return _relation(FLIGHTS_SCHEMA, rows)


#: Registry used by the source library and the examples.
GENERATORS: dict[str, Callable[..., Relation]] = {
    "books": generate_books,
    "cars": generate_cars,
    "accounts": generate_accounts,
    "flights": generate_flights,
}
