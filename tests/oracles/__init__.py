"""Reference implementations the tests compare the production code against."""
