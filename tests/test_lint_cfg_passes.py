"""Seeded true-positive (and tricky true-negative) fixtures for the
CFG-backed pass families: RC6xx process boundary, RB7xx blocking
discipline, RR8xx resource lifecycle."""

from repro.lint.engine import analyze_source


def _rules(source, select=None):
    return [f.rule for f in analyze_source(source, select=select)]


class TestProcessBoundary:
    def test_rc601_lock_in_payload_via_variable(self):
        src = (
            "import threading\n"
            "from multiprocessing import Pool\n"
            "def f(pool: Pool, task):\n"
            "    lk = threading.Lock()\n"
            "    pool.apply_async(task, (lk,))\n"
        )
        findings = analyze_source(src, select=["RC601"])
        assert [f.rule for f in findings] == ["RC601"]
        assert "via 'lk'" in findings[0].message

    def test_rc601_connection_in_initargs(self):
        src = (
            "import sqlite3\n"
            "from multiprocessing import Pool\n"
            "def f(task):\n"
            "    conn = sqlite3.connect('db')\n"
            "    with Pool(4, initializer=task, initargs=(conn,)) as p:\n"
            "        p.map(task, [1])\n"
        )
        assert "RC601" in _rules(src, select=["RC601"])

    def test_rc601_lock_owning_instance(self):
        src = (
            "import threading\n"
            "from multiprocessing import Pool\n"
            "class Plane:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "def f(pool: Pool, work):\n"
            "    plane = Plane()\n"
            "    pool.apply_async(work, (plane,))\n"
        )
        findings = analyze_source(src, select=["RC601"])
        assert findings and "lock-owning class 'Plane'" in findings[0].message

    def test_rc601_plain_data_is_clean(self):
        src = (
            "from multiprocessing import Pool\n"
            "def f(pool: Pool, work):\n"
            "    rows = [1, 2, 3]\n"
            "    pool.apply_async(work, (rows,), callback=print)\n"
        )
        assert _rules(src, select=["RC601", "RC602"]) == []

    def test_rc602_lambda_payload(self):
        src = (
            "from multiprocessing import Pool\n"
            "def f(pool: Pool):\n"
            "    pool.apply_async(lambda: 1)\n"
        )
        assert _rules(src, select=["RC602"]) == ["RC602"]

    def test_rc602_local_function_initializer(self):
        src = (
            "from multiprocessing import Pool\n"
            "def f():\n"
            "    def init():\n"
            "        pass\n"
            "    with Pool(2, initializer=init) as p:\n"
            "        pass\n"
        )
        findings = analyze_source(src, select=["RC602"])
        assert findings and "locally-defined function 'init'" in findings[0].message

    def test_rc603_fork_under_held_lock(self):
        src = (
            "import threading\n"
            "from multiprocessing import Process\n"
            "lk = threading.Lock()\n"
            "def f(work):\n"
            "    with lk:\n"
            "        p = Process(target=work)\n"
            "        p.start()\n"
        )
        assert "RC603" in _rules(src, select=["RC603"])

    def test_rc603_fork_after_release_is_clean(self):
        src = (
            "import threading\n"
            "from multiprocessing import Process\n"
            "lk = threading.Lock()\n"
            "def f(work):\n"
            "    with lk:\n"
            "        pass\n"
            "    p = Process(target=work)\n"
            "    p.start()\n"
        )
        assert _rules(src, select=["RC603"]) == []

    def test_rc601_shared_memory_segment_in_payload(self):
        src = (
            "from multiprocessing import Pool\n"
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def f(pool: Pool, work):\n"
            "    shm = SharedMemory(create=True, size=64)\n"
            "    pool.apply_async(work, (shm,))\n"
        )
        findings = analyze_source(src, select=["RC601"])
        assert findings and "shared-memory segment" in findings[0].message

    def test_rc601_shm_buf_memoryview_in_payload(self):
        src = (
            "from multiprocessing import Pool\n"
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def f(pool: Pool, work):\n"
            "    shm = SharedMemory(create=True, size=64)\n"
            "    pool.apply_async(work, (shm.buf,))\n"
        )
        findings = analyze_source(src, select=["RC601"])
        assert findings and "shm.buf" in findings[0].message

    def test_rc601_shm_name_handoff_is_clean(self):
        # the sanctioned protocol: ship the segment *name*, re-attach in
        # the child -- a plain string crosses the boundary fine
        src = (
            "from multiprocessing import Pool\n"
            "from multiprocessing.shared_memory import SharedMemory\n"
            "def f(pool: Pool, work):\n"
            "    shm = SharedMemory(create=True, size=64)\n"
            "    pool.apply_async(work, (shm.name,))\n"
        )
        assert _rules(src, select=["RC601", "RC602"]) == []

    def test_rc601_lock_in_shm_worker_pool_init_args(self):
        src = (
            "import threading\n"
            "from repro.core.verify.shm import ShmWorkerPool\n"
            "def body(st, task):\n"
            "    pass\n"
            "def f():\n"
            "    lk = threading.Lock()\n"
            "    pool = ShmWorkerPool(2, body, (lk,))\n"
        )
        findings = analyze_source(src, select=["RC601"])
        assert findings and "via 'lk'" in findings[0].message

    def test_rc602_local_body_in_shm_worker_pool(self):
        src = (
            "from repro.core.verify.shm import ShmWorkerPool\n"
            "def f(args):\n"
            "    def body(st, task):\n"
            "        pass\n"
            "    pool = ShmWorkerPool(2, body, args)\n"
        )
        findings = analyze_source(src, select=["RC602"])
        assert findings and "locally-defined function 'body'" in findings[0].message

    def test_rc601_shm_worker_pool_submit_is_process_payload(self):
        src = (
            "import threading\n"
            "from repro.core.verify.shm import ShmWorkerPool\n"
            "def body(st, task):\n"
            "    pass\n"
            "def f(args):\n"
            "    pool = ShmWorkerPool(2, body, args)\n"
            "    lk = threading.Lock()\n"
            "    pool.submit(('range', 0, lk))\n"
        )
        assert "RC601" in _rules(src, select=["RC601"])

    def test_rc601_shm_worker_pool_plain_data_is_clean(self):
        src = (
            "from repro.core.verify.shm import ShmWorkerPool\n"
            "def body(st, task):\n"
            "    pass\n"
            "def f(spec):\n"
            "    pool = ShmWorkerPool(2, body, (spec, [1, 2]))\n"
            "    pool.submit(('range', 0, 3, 100, None))\n"
        )
        assert _rules(src, select=["RC601", "RC602"]) == []


class TestBlockingDiscipline:
    def test_rb701_sleep_under_lock(self):
        src = (
            "import threading, time\n"
            "lk = threading.Lock()\n"
            "def f():\n"
            "    with lk:\n"
            "        time.sleep(1)\n"
        )
        assert _rules(src, select=["RB701"]) == ["RB701"]

    def test_rb701_untimed_result_under_lock(self):
        src = (
            "import threading\n"
            "lk = threading.Lock()\n"
            "def f(fut):\n"
            "    with lk:\n"
            "        return fut.result()\n"
        )
        findings = analyze_source(src, select=["RB701"])
        assert findings and "no timeout" in findings[0].message

    def test_rb701_timed_result_is_clean(self):
        src = (
            "import threading\n"
            "lk = threading.Lock()\n"
            "def f(fut):\n"
            "    with lk:\n"
            "        return fut.result(timeout=5)\n"
        )
        assert _rules(src, select=["RB701"]) == []

    def test_rb701_sleep_outside_lock_is_clean(self):
        src = (
            "import threading, time\n"
            "lk = threading.Lock()\n"
            "def f():\n"
            "    with lk:\n"
            "        pass\n"
            "    time.sleep(1)\n"
        )
        assert _rules(src, select=["RB701"]) == []

    def test_rb701_transitive_through_helper(self):
        src = (
            "import threading, time\n"
            "lk = threading.Lock()\n"
            "def helper():\n"
            "    time.sleep(2)\n"
            "def f():\n"
            "    with lk:\n"
            "        helper()\n"
        )
        findings = analyze_source(src, select=["RB701"])
        assert findings
        assert "may block" in findings[0].message
        assert "sleep()" in findings[0].message

    def test_rb702_io_under_foreign_lock(self):
        src = (
            "import threading\n"
            "class Owner:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "class Client:\n"
            "    def write(self, owner: Owner, conn):\n"
            "        with owner._lock:\n"
            "            conn.execute('insert')\n"
        )
        assert _rules(src, select=["RB702"]) == ["RB702"]

    def test_rb702_own_monitor_io_is_exempt(self):
        # the WitnessStore shape: a class doing I/O under its own lock
        src = (
            "import threading\n"
            "class Store:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._conn = None\n"
            "    def put(self, row):\n"
            "        with self._lock:\n"
            "            self._conn.execute('insert', row)\n"
        )
        assert _rules(src, select=["RB702"]) == []


class TestResourceLifecycle:
    def test_rr801_early_return_leaks(self):
        src = (
            "import sqlite3\n"
            "def f(flag):\n"
            "    conn = sqlite3.connect('db')\n"
            "    if flag:\n"
            "        return 1\n"
            "    conn.close()\n"
            "    return 0\n"
        )
        findings = analyze_source(src, select=["RR801"])
        assert [f.rule for f in findings] == ["RR801"]
        assert findings[0].line == 3

    def test_rr801_finally_close_is_clean(self):
        src = (
            "import sqlite3\n"
            "def f(flag):\n"
            "    conn = sqlite3.connect('db')\n"
            "    try:\n"
            "        if flag:\n"
            "            return 1\n"
            "        return 0\n"
            "    finally:\n"
            "        conn.close()\n"
        )
        assert _rules(src, select=["RR801"]) == []

    def test_rr801_with_statement_is_clean(self):
        src = (
            "def f():\n"
            "    fh = open('x')\n"
            "    with fh:\n"
            "        return fh.read()\n"
        )
        assert _rules(src, select=["RR801"]) == []

    def test_rr801_escaping_resource_is_callers_problem(self):
        src = (
            "import sqlite3\n"
            "def f():\n"
            "    conn = sqlite3.connect('db')\n"
            "    return conn\n"
        )
        assert _rules(src, select=["RR801"]) == []

    def test_rr801_generator_frames_are_skipped(self):
        src = (
            "def f():\n"
            "    fh = open('x')\n"
            "    yield fh.readline()\n"
            "    fh.close()\n"
        )
        assert _rules(src, select=["RR801"]) == []

    def test_rr802_unclosed_executor(self):
        src = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def f(work):\n"
            "    pool = ThreadPoolExecutor(4)\n"
            "    pool.submit(work)\n"
        )
        assert _rules(src, select=["RR802"]) == ["RR802"]

    def test_rr802_shutdown_on_every_path_is_clean(self):
        src = (
            "from concurrent.futures import ThreadPoolExecutor\n"
            "def f(work):\n"
            "    pool = ThreadPoolExecutor(4)\n"
            "    try:\n"
            "        pool.submit(work)\n"
            "    finally:\n"
            "        pool.shutdown()\n"
        )
        assert _rules(src, select=["RR802"]) == []
