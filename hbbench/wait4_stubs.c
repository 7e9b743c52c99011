/* wait4(2) for the benchmark: the exit status plus the child's own
   resource usage (user+system cpu, peak resident set), which
   Unix.waitpid does not expose. */

#define _GNU_SOURCE
#include <errno.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* Returns (exit code or 128 + signal, cpu seconds, max rss in KiB). */
value hbbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(result);
  int status = 0;
  int err = 0;
  struct rusage ru;
  pid_t pid = (pid_t)Int_val(vpid);
  pid_t r;
  memset(&ru, 0, sizeof ru);
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  if (r < 0) err = errno;
  caml_leave_blocking_section();
  if (r < 0) caml_failwith(strerror(err));
  int code = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
  double cpu = (double)ru.ru_utime.tv_sec + (double)ru.ru_utime.tv_usec / 1e6
             + (double)ru.ru_stime.tv_sec + (double)ru.ru_stime.tv_usec / 1e6;
  result = caml_alloc_tuple(3);
  Store_field(result, 0, Val_int(code));
  Store_field(result, 1, caml_copy_double(cpu));
  Store_field(result, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(result);
}
