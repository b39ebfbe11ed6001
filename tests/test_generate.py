"""Unit tests for the synthetic data generators."""

from repro.conditions.parser import parse_condition
from repro.data.generate import (
    generate_accounts,
    generate_books,
    generate_cars,
    generate_flights,
)


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = generate_books(200, seed=7)
        b = generate_books(200, seed=7)
        assert a.as_row_set() == b.as_row_set()

    def test_different_seed_different_data(self):
        a = generate_cars(200, seed=7)
        b = generate_cars(200, seed=8)
        assert a.as_row_set() != b.as_row_set()


class TestShape:
    def test_sizes(self):
        assert len(generate_books(123)) == 123
        assert len(generate_cars(45)) == 45
        assert len(generate_accounts(67)) == 67
        assert len(generate_flights(89)) == 89

    def test_rows_fit_schema(self):
        for relation in (
            generate_books(50), generate_cars(50),
            generate_accounts(50), generate_flights(50),
        ):
            for row in relation:
                relation.schema.validate_row(row)

    def test_keys_unique(self):
        for relation in (generate_books(300), generate_cars(300)):
            key = relation.schema.key
            values = [row[key] for row in relation]
            assert len(set(values)) == len(values)

    def test_flights_no_self_loops(self):
        for row in generate_flights(300):
            assert row["origin"] != row["destination"]

    def test_equal_values_of_a_column_are_one_object(self):
        """Titles, years and prices recur; each is stored once."""
        for relation in (generate_books(2000), generate_flights(2000)):
            for column in zip(*relation.tuples):
                assert len({id(value) for value in column}) \
                    == len(set(column))
                assert len({type(value) for value in column}) == 1


class TestPaperPlausibility:
    """The distributions should make the paper's queries behave sensibly."""

    def test_bookstore_example_11_selectivities(self):
        books = generate_books(20000)
        target = books.select(
            parse_condition(
                "(author = 'Sigmund Freud' or author = 'Carl Jung') "
                "and title contains 'dreams'"
            )
        )
        title_only = books.select(parse_condition("title contains 'dreams'"))
        # The two-query plan moves far less data than the CNF plan.
        assert 0 < len(target) < len(title_only) / 3

    def test_car_example_12_nonempty(self):
        cars = generate_cars(12000)
        matches = cars.select(
            parse_condition(
                "style = 'sedan' and (size = 'compact' or size = 'midsize') "
                "and ((make = 'Toyota' and price <= 20000) or "
                "(make = 'BMW' and price <= 40000))"
            )
        )
        assert 0 < len(matches) < len(cars) / 4
