"""Deliberate plaintext leaks, one per sink kind. Parsed by the
analyzer's test suite, never imported."""


def leak_return(crypto, cell):
    plain = crypto.decrypt(cell)
    return plain


def leak_log(crypto, cell):
    value = crypto.decrypt_cell(cell)
    print("cell:", value)


def leak_metric(crypto, cell, rows_counter):
    value = crypto.decrypt(cell)
    rows_counter.inc(value)


def leak_fstring(crypto, cell, logger):
    value = deserialize_value(crypto.decrypt(cell))
    logger.info(f"decrypted {value}")


def leak_batch(crypto, cells, logger):
    logger.info(crypto.decrypt_many(cells)[0])
